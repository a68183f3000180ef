// Fixture: suppression hygiene findings.

pub fn problems(cost: &mut Cost, input: Option<u32>) -> u32 {
    cost.pages_read += 1; // apex-lint: allow(cost-io-writes)
    // ^ line 4: suppresses, but bad-suppression (no justification)
    let x = input.unwrap_or(0); // apex-lint: allow(cost-io-writes): nothing fires here -> unused
    cost.hash_lookups += 1; // apex-lint: allow(not-a-rule): unknown rule name
    x
}

// Fixture: justified suppressions silence findings, on the same line or
// from the line above.

pub fn charge(cost: &mut Cost) {
    cost.pages_read += 1; // apex-lint: allow(cost-io-writes): fixture-local storage layer
    // apex-lint: allow(cost-io-writes): standalone comment covers the next line
    cost.extent_pairs += 2;
}

// Fixture: private buffer pools constructed outside storage.

pub fn rogue_pools() {
    let a = BufferManager::unbounded(PageModel::default()); // line 4: finding
    let b = BufferManager::with_capacity_pages(64); // line 5: finding
    let c = BufferManager::new(PageModel::default(), 8); // line 6: finding
    let d = BufferManager::default(); // line 7: finding
    let ok = BufferHandle::unbounded(); // handles are fine: clean
    drop((a, b, c, d, ok));
}

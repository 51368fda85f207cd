package serve

// QueueLen returns how many requests wait in the tenant's shard queue,
// so tests can hold a batch back until a known set of requests queued.
func (t *Tenant) QueueLen() int { return len(t.shard.ch) }

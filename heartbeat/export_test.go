package heartbeat

// WithLockedStore selects the mutex-guarded history instead of the default
// lock-free one: the reference the differential and subscribe tests hold
// the lock-free store to.
func WithLockedStore() Option { return func(c *config) { c.locked = true } }

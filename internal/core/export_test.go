package core

// CachedAggregators returns the gradient and model aggregators the runners
// hold for replica slot r (nil where none was built yet), for the reuse lock
// in alloc_test.go.
func (c *Cluster) CachedAggregators(r int) (grad, model *Aggregator) {
	return c.gradAggs.peek(r), c.modelAggs.peek(r)
}

func (ac *aggCache) peek(slot int) *Aggregator {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if e := ac.slots[slot]; e != nil {
		return e.agg
	}
	return nil
}

// compressionResidualNorm exposes the pending error-feedback residual to
// tests (0 without compression).
func (w *Worker) compressionResidualNorm() float64 {
	if w.comp == nil {
		return 0
	}
	return w.comp.ResidualNorm()
}

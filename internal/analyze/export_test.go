package analyze

// setSampleBlock lowers the block length of every sample list in b, and
// of the class accumulators b makes from now on, so a test of a few
// records reaches many block edges.
func (b *Bundle) setSampleBlock(n int) {
	b.Scale.points.block = n
	b.Waits.points.block = n
	b.Backfill.points.block = n
	b.Timeline.edges.block = n
	b.Classes.block = n
	for _, a := range b.Classes.byClass {
		a.waits.block, a.nodes.block, a.ratios.block = n, n, n
	}
}

package dataflow

// Rows returns the task names by concurrency row: the rows DOT ranks
// together, which the graph tests compare against.
func (g *Graph) Rows() ([][]string, error) {
	levels, err := g.levels()
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(levels))
	for d, idxs := range levels {
		for _, i := range idxs {
			out[d] = append(out[d], g.tasks[i].Name)
		}
	}
	return out, nil
}

package dataflow

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// randomDAG builds a layered random graph: tasks in layer k read a random
// subset of the files written by layers < k, so the graph is acyclic by
// construction.
func randomDAG(rng *rand.Rand, log *[]string, mu *sync.Mutex) (*Graph, map[string][]string) {
	g := NewGraph()
	wantBefore := map[string][]string{} // task → upstream tasks
	layers := 2 + rng.Intn(4)
	var producedFiles []string
	fileWriter := map[string]string{}
	for layer := 0; layer < layers; layer++ {
		width := 1 + rng.Intn(4)
		var newFiles []string
		for w := 0; w < width; w++ {
			name := fmt.Sprintf("t%d_%d", layer, w)
			var reads []string
			for _, f := range producedFiles {
				if rng.Float64() < 0.3 {
					reads = append(reads, f)
					wantBefore[name] = append(wantBefore[name], fileWriter[f])
				}
			}
			out := name + ".out"
			newFiles = append(newFiles, out)
			fileWriter[out] = name
			taskName := name
			g.Add(Task{
				Name:   taskName,
				Reads:  reads,
				Writes: []string{out},
				Run: func(context.Context) error {
					mu.Lock()
					*log = append(*log, taskName)
					mu.Unlock()
					return nil
				},
			})
		}
		producedFiles = append(producedFiles, newFiles...)
	}
	return g, wantBefore
}

// TestPropertyRandomDAGsRespectDependencies executes random DAGs on a
// random worker count and verifies every inferred edge was honoured.
func TestPropertyRandomDAGsRespectDependencies(t *testing.T) {
	f := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		var log []string
		var mu sync.Mutex
		g, wantBefore := randomDAG(rng, &log, &mu)
		workers := 1 + rng.Intn(6)
		trace, err := (&Executor{Workers: workers}).Run(context.Background(), g)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(trace.Tasks) != len(g.tasks) {
			t.Fatalf("seed %d: traced %d of %d tasks", seed, len(trace.Tasks), len(g.tasks))
		}
		pos := map[string]int{}
		for i, name := range log {
			pos[name] = i
		}
		if len(pos) != len(g.tasks) {
			t.Fatalf("seed %d: %d tasks ran of %d", seed, len(pos), len(g.tasks))
		}
		for task, ups := range wantBefore {
			for _, up := range ups {
				if pos[up] > pos[task] {
					t.Fatalf("seed %d: %s ran before its dependency %s", seed, task, up)
				}
			}
		}
		// Rows must be consistent with the same ordering.
		rows, err := g.Rows()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		depth := map[string]int{}
		for d, row := range rows {
			for _, name := range row {
				depth[name] = d
			}
		}
		for task, ups := range wantBefore {
			for _, up := range ups {
				if depth[up] >= depth[task] {
					t.Fatalf("seed %d: row order broken: %s (row %d) depends on %s (row %d)",
						seed, task, depth[task], up, depth[up])
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

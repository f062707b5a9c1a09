// Package dataflow is the workflow-composition engine standing in for
// Swift/T. Tasks are written as an apparently linear list, each declaring
// the files and in-memory Values it reads and writes; the engine infers
// the dependency DAG from those names, executes independent tasks
// concurrently on N workers (the paper's "parallel pipelines" model), and
// exports the graph as DOT — which is how this reproduction regenerates
// Figure 2.
package dataflow

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// fmtSpanDur renders a task duration at a precision that stays readable
// across microsecond no-op tasks and multi-second stages.
func fmtSpanDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}

// Task is one workflow stage with declared data dependencies: the file
// paths and Value names it reads and writes.
type Task struct {
	Name   string
	Reads  []string
	Writes []string
	Run    func(ctx context.Context) error
}

// Graph is a set of tasks with inferred dependencies.
type Graph struct {
	tasks   []*Task
	writers map[string]int // file or value name → producing task index
	names   map[string]int // task name → index (duplicate detection)
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{writers: map[string]int{}, names: map[string]int{}}
}

// Add appends a task. Every file or value may have at most one writer; a
// task must have a name and a body.
func (g *Graph) Add(t Task) error {
	if t.Name == "" {
		return errors.New("dataflow: task needs a name")
	}
	if t.Run == nil {
		return fmt.Errorf("dataflow: task %q has no body", t.Name)
	}
	if _, ok := g.names[t.Name]; ok {
		return fmt.Errorf("dataflow: duplicate task name %q", t.Name)
	}
	for _, w := range t.Writes {
		if prev, ok := g.writers[w]; ok {
			return fmt.Errorf("dataflow: %q written by both %q and %q",
				w, g.tasks[prev].Name, t.Name)
		}
	}
	idx := len(g.tasks)
	tt := t
	g.tasks = append(g.tasks, &tt)
	g.names[t.Name] = idx
	for _, w := range t.Writes {
		g.writers[w] = idx
	}
	return nil
}

// Len returns the task count.
func (g *Graph) Len() int { return len(g.tasks) }

// deps returns, for each task, the set of upstream task indices.
func (g *Graph) deps() [][]int {
	out := make([][]int, len(g.tasks))
	for i, t := range g.tasks {
		seen := map[int]bool{}
		for _, r := range t.Reads {
			if w, ok := g.writers[r]; ok && w != i && !seen[w] {
				seen[w] = true
				out[i] = append(out[i], w)
			}
		}
		sort.Ints(out[i])
	}
	return out
}

// Validate checks for dependency cycles.
func (g *Graph) Validate() error {
	_, err := g.levels()
	return err
}

// levels returns tasks grouped by topological depth — the "horizontal
// rows" of Figure 2 whose members may execute concurrently. The DFS is
// iterative: graphs arrive from generators at six-figure task counts,
// and a deep linear chain must not grow the goroutine stack per task.
func (g *Graph) levels() ([][]int, error) {
	deps := g.deps()
	depth := make([]int, len(g.tasks))
	state := make([]int, len(g.tasks)) // 0 unvisited, 1 visiting, 2 done
	type frame struct {
		node int
		next int // index into deps[node] of the next edge to follow
	}
	var stack []frame
	for root := range g.tasks {
		if state[root] != 0 {
			continue
		}
		state[root] = 1
		stack = append(stack[:0], frame{node: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(deps[f.node]) {
				u := deps[f.node][f.next]
				f.next++
				switch state[u] {
				case 1:
					return nil, fmt.Errorf("dataflow: dependency cycle through %q", g.tasks[u].Name)
				case 0:
					state[u] = 1
					stack = append(stack, frame{node: u})
				}
				continue
			}
			d := 0
			for _, u := range deps[f.node] {
				if depth[u]+1 > d {
					d = depth[u] + 1
				}
			}
			depth[f.node] = d
			state[f.node] = 2
			stack = stack[:len(stack)-1]
		}
	}
	maxDepth := 0
	for i := range g.tasks {
		if depth[i] > maxDepth {
			maxDepth = depth[i]
		}
	}
	levels := make([][]int, maxDepth+1)
	for i, d := range depth {
		levels[d] = append(levels[d], i)
	}
	return levels, nil
}

// Rows returns the task names by concurrency row.
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

// DOT exports the inferred dataflow diagram in Graphviz format, tasks as
// boxes ranked by row — the Figure 2 artifact.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph workflow {\n  rankdir=TB;\n  node [shape=box];\n")
	for _, t := range g.tasks {
		fmt.Fprintf(&b, "  %q;\n", t.Name)
	}
	g.writeEdges(&b)
	if levels, err := g.levels(); err == nil {
		for _, row := range levels {
			if len(row) < 2 {
				continue
			}
			names := make([]string, len(row))
			for j, i := range row {
				names[j] = fmt.Sprintf("%q", g.tasks[i].Name)
			}
			fmt.Fprintf(&b, "  { rank=same; %s }\n", strings.Join(names, "; "))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// DOTTrace renders the workflow diagram annotated with what actually
// happened in a run: successful tasks in green with their wall time,
// failures in red with attempt count and duration, skipped tasks dashed
// grey. This is the post-run companion to DOT — the Figure 2 shape plus
// the execution record, and its timings match the run tracer's spans
// (both measure the same task start/end instants).
func (g *Graph) DOTTrace(tr *Trace) string {
	byName := make(map[string]*TaskTrace, len(tr.Tasks))
	for i := range tr.Tasks {
		byName[tr.Tasks[i].Name] = &tr.Tasks[i]
	}
	var b strings.Builder
	b.WriteString("digraph workflow {\n  rankdir=TB;\n  node [shape=box];\n")
	for _, t := range g.tasks {
		tt, ok := byName[t.Name]
		switch {
		case !ok:
			fmt.Fprintf(&b, "  %q [color=gray, label=\"%s\\nnot run\"];\n", t.Name, t.Name)
		case tt.Skipped:
			fmt.Fprintf(&b, "  %q [color=gray, style=dashed, label=\"%s\\nskipped\"];\n", t.Name, t.Name)
		case tt.Err != nil:
			fmt.Fprintf(&b, "  %q [color=red, label=\"%s\\nfailed (%d attempts, %s)\"];\n",
				t.Name, t.Name, len(tt.Attempts), fmtSpanDur(tt.End.Sub(tt.Start)))
		case len(tt.Attempts) > 1:
			fmt.Fprintf(&b, "  %q [color=orange, label=\"%s\\nok after %d attempts (%s)\"];\n",
				t.Name, t.Name, len(tt.Attempts), fmtSpanDur(tt.End.Sub(tt.Start)))
		default:
			fmt.Fprintf(&b, "  %q [color=darkgreen, label=\"%s\\nok (%s)\"];\n",
				t.Name, t.Name, fmtSpanDur(tt.End.Sub(tt.Start)))
		}
	}
	g.writeEdges(&b)
	b.WriteString("}\n")
	return b.String()
}

// writeEdges draws one DOT edge per inferred dependency.
func (g *Graph) writeEdges(b *strings.Builder) {
	for i, ds := range g.deps() {
		for _, u := range ds {
			fmt.Fprintf(b, "  %q -> %q;\n", g.tasks[u].Name, g.tasks[i].Name)
		}
	}
}

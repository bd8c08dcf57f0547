package callstack

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"perfvar/internal/trace"
)

// CallTreeNode aggregates all invocations that share one call path
// (sequence of regions from a root to this node), across all ranks — the
// calling-context-tree view a profiler like HPCToolkit presents.
type CallTreeNode struct {
	Region trace.RegionID
	Name   string
	// Count is the number of invocations on this path.
	Count int64
	// Inclusive and Exclusive are summed over all invocations on this
	// path across ranks.
	Inclusive trace.Duration
	Exclusive trace.Duration
	// Children are ordered by descending inclusive time.
	Children []*CallTreeNode

	index map[trace.RegionID]*CallTreeNode
}

// CallTree is the merged calling-context tree of a trace.
type CallTree struct {
	// Roots holds the top-level call paths, ordered by descending
	// inclusive time.
	Roots []*CallTreeNode
	// TotalInclusive is the summed inclusive time of all roots.
	TotalInclusive trace.Duration

	rootIndex map[trace.RegionID]*CallTreeNode
}

// CallTreeOf builds the calling-context tree of the nranks event streams
// that stream feeds (the shape of Trace.StreamRank), defined over
// regions: each rank's events run through a StreamReplay, ranks in
// order. A rank that does not replay or stream fails the build.
func CallTreeOf(regions []trace.Region, nranks int, stream func(rank int, fn func(trace.Event) error) error) (*CallTree, error) {
	t := &CallTree{rootIndex: make(map[trace.RegionID]*CallTreeNode)}
	var path []*CallTreeNode // the tree node of every open invocation
	for rank := 0; rank < nranks; rank++ {
		rep := NewStreamReplay(trace.Rank(rank), len(regions))
		path = path[:0]
		err := stream(rank, func(ev trace.Event) error {
			_, enter, childTime, _ := rep.Top()
			if err := rep.Feed(ev); err != nil {
				return err
			}
			switch ev.Kind {
			case trace.KindEnter:
				index, siblings := t.rootIndex, &t.Roots
				if len(path) > 0 {
					parent := path[len(path)-1]
					index, siblings = parent.index, &parent.Children
				}
				node := index[ev.Region]
				if node == nil {
					node = &CallTreeNode{
						Region: ev.Region,
						Name:   regions[ev.Region].Name,
						index:  make(map[trace.RegionID]*CallTreeNode),
					}
					index[ev.Region] = node
					*siblings = append(*siblings, node)
				}
				path = append(path, node)
			case trace.KindLeave:
				node := path[len(path)-1]
				path = path[:len(path)-1]
				incl := ev.Time - enter
				node.Count++
				node.Inclusive += incl
				node.Exclusive += incl - childTime
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if err := rep.Finish(); err != nil {
			return nil, err
		}
	}
	t.sortRec()
	for _, r := range t.Roots {
		t.TotalInclusive += r.Inclusive
	}
	return t, nil
}

func (t *CallTree) sortRec() {
	var rec func(nodes []*CallTreeNode)
	rec = func(nodes []*CallTreeNode) {
		sort.Slice(nodes, func(i, j int) bool {
			if nodes[i].Inclusive != nodes[j].Inclusive {
				return nodes[i].Inclusive > nodes[j].Inclusive
			}
			return nodes[i].Region < nodes[j].Region
		})
		for _, n := range nodes {
			rec(n.Children)
		}
	}
	rec(t.Roots)
}

// Find returns the node at the given call path (region names from a
// root), or nil.
func (t *CallTree) Find(path ...string) *CallTreeNode {
	nodes := t.Roots
	var cur *CallTreeNode
	for _, name := range path {
		cur = nil
		for _, n := range nodes {
			if n.Name == name {
				cur = n
				break
			}
		}
		if cur == nil {
			return nil
		}
		nodes = cur.Children
	}
	return cur
}

// Walk visits every node in depth-first order (parents before children).
func (t *CallTree) Walk(visit func(node *CallTreeNode, depth int)) {
	var rec func(nodes []*CallTreeNode, depth int)
	rec = func(nodes []*CallTreeNode, depth int) {
		for _, n := range nodes {
			visit(n, depth)
			rec(n.Children, depth+1)
		}
	}
	rec(t.Roots, 0)
}

// Print writes an indented text rendering of the tree to w. maxDepth < 0
// prints everything. Shares are relative to the tree's total inclusive
// time.
func (t *CallTree) Print(w io.Writer, maxDepth int) error {
	var err error
	t.Walk(func(n *CallTreeNode, depth int) {
		if err != nil || (maxDepth >= 0 && depth > maxDepth) {
			return
		}
		share := 0.0
		if t.TotalInclusive > 0 {
			share = float64(n.Inclusive) / float64(t.TotalInclusive) * 100
		}
		_, err = fmt.Fprintf(w, "%s%-30s %10d calls  incl %12d ns (%5.1f%%)  excl %12d ns\n",
			strings.Repeat("  ", depth), n.Name, n.Count, n.Inclusive, share, n.Exclusive)
	})
	return err
}

package callstack

import (
	"strings"
	"testing"

	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

func TestCallTreeFig2(t *testing.T) {
	tr := workloads.Fig2Trace()
	tree, err := CallTreeOf(tr.Regions, tr.NumRanks(), tr.StreamRank)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Roots) != 1 || tree.Roots[0].Name != "main" {
		t.Fatalf("roots: %+v", tree.Roots)
	}
	if tree.TotalInclusive != 54*workloads.ToyStep {
		t.Fatalf("total = %d", tree.TotalInclusive)
	}
	// main has children i and a; a has children b and c.
	a := tree.Find("main", "a")
	if a == nil {
		t.Fatal("path main/a not found")
	}
	if a.Count != 9 || a.Inclusive != 36*workloads.ToyStep {
		t.Fatalf("a node: %+v", a)
	}
	bNode := tree.Find("main", "a", "b")
	if bNode == nil || bNode.Count != 9 || bNode.Inclusive != 18*workloads.ToyStep {
		t.Fatalf("b node: %+v", bNode)
	}
	if tree.Find("main", "zzz") != nil {
		t.Fatal("bogus path found")
	}
	if tree.Find("zzz") != nil {
		t.Fatal("bogus root found")
	}
	// Children ordered by inclusive time: a (36) before i (6).
	main := tree.Roots[0]
	if main.Children[0].Name != "a" || main.Children[1].Name != "i" {
		t.Fatalf("child order: %v, %v", main.Children[0].Name, main.Children[1].Name)
	}
}

func TestCallTreeContextSensitivity(t *testing.T) {
	// The same region called from two different parents gets two nodes.
	tr := trace.New("ctx", 1)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	g := tr.AddRegion("g", trace.ParadigmUser, trace.RoleFunction)
	h := tr.AddRegion("h", trace.ParadigmUser, trace.RoleFunction)
	tr.Append(0, trace.Enter(0, f))
	tr.Append(0, trace.Enter(1, h))
	tr.Append(0, trace.Leave(3, h))
	tr.Append(0, trace.Leave(4, f))
	tr.Append(0, trace.Enter(5, g))
	tr.Append(0, trace.Enter(6, h))
	tr.Append(0, trace.Leave(10, h))
	tr.Append(0, trace.Leave(11, g))
	tree, err := CallTreeOf(tr.Regions, tr.NumRanks(), tr.StreamRank)
	if err != nil {
		t.Fatal(err)
	}
	hf := tree.Find("f", "h")
	hg := tree.Find("g", "h")
	if hf == nil || hg == nil {
		t.Fatal("context-split nodes missing")
	}
	if hf.Inclusive != 2 || hg.Inclusive != 4 {
		t.Fatalf("h contexts: f/h=%d g/h=%d", hf.Inclusive, hg.Inclusive)
	}
	if len(tree.Roots) != 2 {
		t.Fatalf("roots = %d", len(tree.Roots))
	}
}

func TestCallTreePrint(t *testing.T) {
	fig2 := workloads.Fig2Trace()
	tree, err := CallTreeOf(fig2.Regions, fig2.NumRanks(), fig2.StreamRank)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tree.Print(&sb, -1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"main", "  a", "    b", "    c", "  i", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("print output missing %q:\n%s", want, out)
		}
	}
	// Depth limit.
	sb.Reset()
	if err := tree.Print(&sb, 0); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "  a") {
		t.Fatal("depth limit ignored")
	}
}

func TestCallTreeWalkOrder(t *testing.T) {
	fig2 := workloads.Fig2Trace()
	tree, err := CallTreeOf(fig2.Regions, fig2.NumRanks(), fig2.StreamRank)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	var depths []int
	tree.Walk(func(n *CallTreeNode, depth int) {
		names = append(names, n.Name)
		depths = append(depths, depth)
	})
	want := []string{"main", "a", "b", "c", "i"}
	if len(names) != len(want) {
		t.Fatalf("walk = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("walk = %v, want %v", names, want)
		}
	}
	if depths[0] != 0 || depths[1] != 1 || depths[2] != 2 {
		t.Fatalf("depths = %v", depths)
	}
}

func TestCallTreeErrorPropagation(t *testing.T) {
	tr := trace.New("bad", 1)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	tr.Append(0, trace.Enter(0, f))
	if _, err := CallTreeOf(tr.Regions, tr.NumRanks(), tr.StreamRank); err == nil {
		t.Fatal("broken trace accepted")
	}
}

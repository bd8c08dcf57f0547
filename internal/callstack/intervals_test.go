package callstack

import (
	"reflect"
	"testing"

	"perfvar/internal/trace"
)

func TestIntervalRecorder(t *testing.T) {
	tr := trace.New("mpi", 2)
	main := tr.AddRegion("main", trace.ParadigmUser, trace.RoleFunction)
	bar := tr.AddRegion("MPI_Barrier", trace.ParadigmMPI, trace.RoleBarrier)
	wait := tr.AddRegion("MPI_Wait", trace.ParadigmMPI, trace.RoleWait)
	tr.Append(0, trace.Enter(0, main))
	tr.Append(0, trace.Enter(2, bar))
	tr.Append(0, trace.Enter(3, wait)) // nested MPI: one interval
	tr.Append(0, trace.Leave(5, wait))
	tr.Append(0, trace.Leave(6, bar))
	tr.Append(0, trace.Enter(8, wait))
	tr.Append(0, trace.Leave(9, wait))
	tr.Append(0, trace.Leave(10, main))
	tr.Append(1, trace.Leave(1, wait)) // leave at depth 0: ignored
	tr.Append(1, trace.Enter(2, 99))   // undefined region: ignored
	tr.Append(1, trace.Enter(4, bar))
	tr.Append(1, trace.Leave(7, bar))
	var got [][2]trace.Time
	EachInterval(tr, ParadigmMask(tr.Regions, trace.ParadigmMPI), func(from, to trace.Time) {
		got = append(got, [2]trace.Time{from, to})
	})
	want := [][2]trace.Time{{2, 6}, {8, 9}, {4, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MPI intervals = %v, want %v", got, want)
	}

	rec := NewIntervalRecorder(ParadigmMask(tr.Regions, trace.ParadigmMPI))
	for _, ev := range tr.Procs[0].Events[:3] {
		rec.Feed(ev.Kind, ev.Region, ev.Time)
	}
	if start, open := rec.Open(); !open || start != 2 {
		t.Fatalf("Open() = %d, %v inside the barrier, want 2, true", start, open)
	}
}

package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"perfvar/internal/callstack"
	"perfvar/internal/trace"
)

func mustRun(t *testing.T, cfg Config, prog Program) *trace.Trace {
	t.Helper()
	tr, err := Run(cfg, prog)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	return tr
}

func TestRunBasicCompute(t *testing.T) {
	tr := mustRun(t, Config{Ranks: 2, Name: "basic"}, func(p *Proc) {
		p.Call("work", func() {
			p.Compute(100 * trace.Microsecond)
		})
	})
	if tr.Name != "basic" || tr.NumRanks() != 2 {
		t.Fatalf("trace meta: %q %d", tr.Name, tr.NumRanks())
	}
	r, ok := tr.RegionByName("work")
	if !ok {
		t.Fatal("work region missing")
	}
	prof, err := callstack.ProfileOf(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := prof.Regions[r.ID].SumInclusive; got != 200*trace.Microsecond {
		t.Fatalf("work inclusive = %d, want 200µs total", got)
	}
	// MPI_Init and MPI_Finalize are bracketed automatically.
	if _, ok := tr.RegionByName("MPI_Init"); !ok {
		t.Fatal("MPI_Init missing")
	}
	if _, ok := tr.RegionByName("MPI_Finalize"); !ok {
		t.Fatal("MPI_Finalize missing")
	}
}

func TestBarrierEqualizesAndChargesWaiters(t *testing.T) {
	// Rank 0 computes 10 ms, rank 1 computes 1 ms: rank 1 waits ~9 ms in
	// the barrier and both leave at the same instant.
	tr := mustRun(t, Config{Ranks: 2}, func(p *Proc) {
		d := trace.Duration(1 * trace.Millisecond)
		if p.Rank() == 0 {
			d = 10 * trace.Millisecond
		}
		p.Compute(d)
		p.Barrier()
	})
	bar, _ := tr.RegionByName("MPI_Barrier")
	var leaves [2]trace.Time
	var durations [2]trace.Duration
	for rank := 0; rank < 2; rank++ {
		var enter trace.Time
		for _, ev := range tr.Procs[rank].Events {
			if ev.Region != bar.ID {
				continue
			}
			if ev.Kind == trace.KindEnter {
				enter = ev.Time
			} else if ev.Kind == trace.KindLeave {
				leaves[rank] = ev.Time
				durations[rank] = ev.Time - enter
			}
		}
	}
	if leaves[0] != leaves[1] {
		t.Fatalf("barrier leave times differ: %d vs %d", leaves[0], leaves[1])
	}
	if durations[1] <= durations[0] {
		t.Fatalf("waiter should spend longer in barrier: fast=%d slow=%d", durations[1], durations[0])
	}
	if wait := durations[1] - durations[0]; wait != 9*trace.Millisecond {
		t.Fatalf("rank 1 extra wait = %d, want 9ms", wait)
	}
}

func TestCollectiveCostGrowsWithRanksAndBytes(t *testing.T) {
	leaveOf := func(ranks int, bytes int64) trace.Time {
		tr := mustRun(t, Config{Ranks: ranks}, func(p *Proc) {
			p.Allreduce(bytes)
		})
		red, _ := tr.RegionByName("MPI_Allreduce")
		for _, ev := range tr.Procs[0].Events {
			if ev.Kind == trace.KindLeave && ev.Region == red.ID {
				return ev.Time
			}
		}
		t.Fatal("no allreduce leave")
		return 0
	}
	small := leaveOf(2, 0)
	big := leaveOf(8, 0)
	if big <= small {
		t.Fatalf("8-rank collective (%d) not slower than 2-rank (%d)", big, small)
	}
	payload := leaveOf(2, 1<<20)
	if payload <= small {
		t.Fatalf("1MiB collective (%d) not slower than empty (%d)", payload, small)
	}
}

func TestSendRecvTiming(t *testing.T) {
	cfg := Config{Ranks: 2}
	tr := mustRun(t, cfg, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Compute(1 * trace.Millisecond)
			p.Send(1, 7, 1000)
		case 1:
			p.Recv(0, 7) // posted long before the message exists
		}
	})
	// Rank 1's recv completes at send time + latency + size/bw + overhead.
	var sendT, recvT trace.Time
	for _, ev := range tr.Procs[0].Events {
		if ev.Kind == trace.KindSend {
			sendT = ev.Time
		}
	}
	for _, ev := range tr.Procs[1].Events {
		if ev.Kind == trace.KindRecv {
			recvT = ev.Time
			if ev.Bytes != 1000 || ev.Peer != 0 || ev.Tag != 7 {
				t.Fatalf("recv event: %+v", ev)
			}
		}
	}
	net := DefaultNetwork()
	want := sendT + net.Latency + net.transferTime(1000) + net.RecvOverhead
	if recvT != want {
		t.Fatalf("recv completion = %d, want %d", recvT, want)
	}
}

func TestSendBeforeRecvIsBuffered(t *testing.T) {
	tr := mustRun(t, Config{Ranks: 2}, func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, 64)
			p.Send(1, 1, 128)
		case 1:
			p.Compute(50 * trace.Millisecond)
			if got := p.Recv(0, 1); got != 64 {
				panic("first message should be 64 bytes (FIFO)")
			}
			if got := p.Recv(0, 1); got != 128 {
				panic("second message should be 128 bytes")
			}
		}
	})
	// Late-posted recv completes immediately (message already arrived).
	var recvTimes []trace.Time
	for _, ev := range tr.Procs[1].Events {
		if ev.Kind == trace.KindRecv {
			recvTimes = append(recvTimes, ev.Time)
		}
	}
	if len(recvTimes) != 2 {
		t.Fatalf("recv events = %d", len(recvTimes))
	}
	if recvTimes[0] < 50*trace.Millisecond {
		t.Fatalf("recv completed before posting: %d", recvTimes[0])
	}
}

func TestInterruptAdvancesTimeWithoutCycles(t *testing.T) {
	tr := mustRun(t, Config{Ranks: 1}, func(p *Proc) {
		p.Compute(1 * trace.Millisecond)
		p.SampleCounters()
		before := p.Cycles().Value()
		p.Interrupt(5 * trace.Millisecond)
		if p.Cycles().Value() != before {
			panic("interrupt advanced cycles")
		}
		p.SampleCounters()
		p.Compute(1 * trace.Millisecond)
		p.SampleCounters()
	})
	cyc, _ := tr.MetricByName(CycleCounterName)
	times, values := tr.MetricSamplesRank(0, cyc.ID)
	if len(times) != 3 {
		t.Fatalf("samples = %d, want 3", len(times))
	}
	if values[0] != values[1] {
		t.Fatalf("cycles advanced during interrupt: %g -> %g", values[0], values[1])
	}
	if values[2] <= values[1] {
		t.Fatalf("cycles did not advance during compute: %g -> %g", values[1], values[2])
	}
	if gap := times[1] - times[0]; gap != 5*trace.Millisecond {
		t.Fatalf("interrupt wall gap = %d, want 5ms", gap)
	}
}

func TestCustomCounter(t *testing.T) {
	tr := mustRun(t, Config{Ranks: 2}, func(p *Proc) {
		fpe := p.NewCounter("FR_FPU_EXCEPTIONS_SSE_MICROTRAPS", "events")
		if p.Rank() == 1 {
			fpe.Add(1000)
		}
		p.Compute(trace.Millisecond)
		p.SampleCounters()
	})
	m, ok := tr.MetricByName("FR_FPU_EXCEPTIONS_SSE_MICROTRAPS")
	if !ok {
		t.Fatal("counter metric missing")
	}
	_, v0 := tr.MetricSamplesRank(0, m.ID)
	_, v1 := tr.MetricSamplesRank(1, m.ID)
	if v0[0] != 0 || v1[0] != 1000 {
		t.Fatalf("counter values: rank0=%v rank1=%v", v0, v1)
	}
}

func TestDeterminism(t *testing.T) {
	prog := func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Call("iter", func() {
				p.Compute(trace.Duration(p.Rng().Intn(1000)) * trace.Microsecond)
				p.Barrier()
			})
		}
	}
	run := func() *trace.Trace { return mustRun(t, Config{Ranks: 4, Seed: 42}, prog) }
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical configs produced different traces")
	}
	c := mustRun(t, Config{Ranks: 4, Seed: 43}, prog)
	if reflect.DeepEqual(a.Procs, c.Procs) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := Run(Config{Ranks: 0}, func(p *Proc) {}); err == nil {
		t.Fatal("Ranks=0 accepted")
	}
	if _, err := Run(Config{Ranks: 1}, nil); err == nil {
		t.Fatal("nil program accepted")
	}
}

func TestPanicPropagates(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(p *Proc) {
		if p.Rank() == 1 {
			panic("boom")
		}
		p.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic propagation", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(p *Proc) {
		if p.Rank() == 0 {
			p.Recv(1, 9) // never sent
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestCollectiveMismatchDetected(t *testing.T) {
	_, err := Run(Config{Ranks: 2}, func(p *Proc) {
		if p.Rank() == 0 {
			p.Barrier()
		} else {
			p.Allreduce(8)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("err = %v, want collective mismatch", err)
	}
}

func TestUnbalancedRegionDetected(t *testing.T) {
	_, err := Run(Config{Ranks: 1}, func(p *Proc) {
		p.Enter(p.Region("f")) // never left
	})
	if err == nil {
		t.Fatal("unbalanced region accepted")
	}
}

func TestUnbalancedLeavePanicReported(t *testing.T) {
	_, err := Run(Config{Ranks: 1}, func(p *Proc) {
		p.Leave(p.Region("f"))
	})
	if err == nil || !strings.Contains(err.Error(), "unbalanced") {
		t.Fatalf("err = %v", err)
	}
}

// Property: for random compute skews, every barrier releases all ranks at
// the same timestamp, and that timestamp is ≥ every rank's arrival.
func TestBarrierReleaseProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, err := Run(Config{Ranks: 3, Seed: seed}, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Compute(trace.Duration(p.Rng().Intn(10_000_000)))
				p.Barrier()
			}
		})
		if err != nil {
			return false
		}
		bar, _ := tr.RegionByName("MPI_Barrier")
		var leaves [3][]trace.Time
		for rank := 0; rank < 3; rank++ {
			for _, ev := range tr.Procs[rank].Events {
				if ev.Kind == trace.KindLeave && ev.Region == bar.ID {
					leaves[rank] = append(leaves[rank], ev.Time)
				}
			}
		}
		for i := 0; i < 3; i++ {
			if leaves[0][i] != leaves[1][i] || leaves[1][i] != leaves[2][i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: traces from random mixed workloads always validate and cycle
// counters are monotone.
func TestSimTraceAlwaysValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr, err := Run(Config{Ranks: 4, Seed: seed}, func(p *Proc) {
			right := (p.Rank() + 1) % 4
			left := (p.Rank() + 3) % 4
			for i := 0; i < 4; i++ {
				p.Call("step", func() {
					p.Compute(trace.Duration(p.Rng().Intn(1_000_000)))
					p.Send(right, int32(i), 256)
					p.Recv(left, int32(i))
					p.Allreduce(8)
				})
				p.SampleCounters()
			}
		})
		if err != nil {
			return false
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkModelHelpers(t *testing.T) {
	n := NetworkModel{BytesPerNS: 2}
	if got := n.transferTime(1000); got != 500 {
		t.Fatalf("transferTime = %d, want 500", got)
	}
	if got := (NetworkModel{}).transferTime(1000); got != 0 {
		t.Fatalf("infinite-bandwidth transferTime = %d", got)
	}
	if got := n.transferTime(0); got != 0 {
		t.Fatalf("zero-byte transferTime = %d", got)
	}
}

func TestInvalidPeerPanicsReported(t *testing.T) {
	if _, err := Run(Config{Ranks: 1}, func(p *Proc) { p.Send(5, 0, 1) }); err == nil {
		t.Fatal("Send to invalid rank accepted")
	}
	if _, err := Run(Config{Ranks: 1}, func(p *Proc) { p.Recv(-1, 0) }); err == nil {
		t.Fatal("Recv from invalid rank accepted")
	}
	if _, err := Run(Config{Ranks: 1}, func(p *Proc) { p.Compute(-5) }); err == nil {
		t.Fatal("negative Compute accepted")
	}
	if _, err := Run(Config{Ranks: 1}, func(p *Proc) { p.Interrupt(-5) }); err == nil {
		t.Fatal("negative Interrupt accepted")
	}
}

func TestNewCollectives(t *testing.T) {
	tr := mustRun(t, Config{Ranks: 4}, func(p *Proc) {
		p.Bcast(1 << 10)
		p.Allgather(256)
		p.Gather(512)
		p.Scatter(512)
	})
	for _, name := range []string{"MPI_Bcast", "MPI_Allgather", "MPI_Gather", "MPI_Scatter"} {
		r, ok := tr.RegionByName(name)
		if !ok {
			t.Errorf("region %s missing", name)
			continue
		}
		if r.Paradigm != trace.ParadigmMPI || r.Role != trace.RoleCollective {
			t.Errorf("%s definition: %+v", name, r)
		}
	}
}

func TestGridTopologyHops(t *testing.T) {
	g := GridTopology{X: 4, Y: 4}
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 4, 1},
		{0, 5, 2},
		{0, 15, 6},
		{5, 10, 2},
	}
	for _, c := range cases {
		if got := g.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := g.Hops(c.b, c.a); got != c.want {
			t.Errorf("Hops symmetric (%d,%d) = %d", c.b, c.a, got)
		}
	}
	if got := (GridTopology{}).Hops(0, 5); got != 0 {
		t.Errorf("degenerate grid hops = %d", got)
	}
}

func TestTopologyLatencyAffectsArrival(t *testing.T) {
	recvTime := func(topo Topology) trace.Time {
		net := DefaultNetwork()
		net.HopLatency = 1 * trace.Millisecond
		tr := mustRun(t, Config{Ranks: 16, Network: net, Topology: topo}, func(p *Proc) {
			switch p.Rank() {
			case 0:
				p.Send(15, 1, 8) // far corner on a 4x4 grid
			case 15:
				p.Recv(0, 1)
			}
		})
		for _, ev := range tr.Procs[15].Events {
			if ev.Kind == trace.KindRecv {
				return ev.Time
			}
		}
		t.Fatal("no recv")
		return 0
	}
	flat := recvTime(nil)
	meshed := recvTime(GridTopology{X: 4, Y: 4})
	// 6 hops × 1ms extra.
	if diff := meshed - flat; diff != 6*trace.Millisecond {
		t.Fatalf("topology latency difference = %v, want 6ms", diff)
	}
}

func TestInstructionCounterAndIPC(t *testing.T) {
	tr := mustRun(t, Config{Ranks: 2}, func(p *Proc) {
		if p.Rank() == 1 {
			p.SetIPCFactor(0.5)
		}
		p.Compute(10 * trace.Millisecond)
		p.SampleCounters()
	})
	cyc, _ := tr.MetricByName(CycleCounterName)
	ins, _ := tr.MetricByName(InstructionCounterName)
	ipc := func(rank trace.Rank) float64 {
		_, cv := tr.MetricSamplesRank(rank, cyc.ID)
		_, iv := tr.MetricSamplesRank(rank, ins.ID)
		return iv[len(iv)-1] / cv[len(cv)-1]
	}
	ipc0, ipc1 := ipc(0), ipc(1)
	if ipc0 <= ipc1 {
		t.Fatalf("IPC: rank0 %g vs rank1 %g, want rank1 halved", ipc0, ipc1)
	}
	base := DefaultClock().BaseIPC
	if ipc0 < base*0.95 || ipc0 > base*1.05 {
		t.Fatalf("rank0 IPC = %g, want ≈ %g", ipc0, base)
	}
	if ipc1 < base*0.45 || ipc1 > base*0.55 {
		t.Fatalf("rank1 IPC = %g, want ≈ %g", ipc1, base/2)
	}
}

func TestSetIPCFactorValidation(t *testing.T) {
	if _, err := Run(Config{Ranks: 1}, func(p *Proc) { p.SetIPCFactor(-1) }); err == nil {
		t.Fatal("negative IPC factor accepted")
	}
}

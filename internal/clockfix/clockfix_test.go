package clockfix

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"perfvar/internal/parallel"
	"perfvar/internal/trace"
	"perfvar/internal/workloads"
)

// pingTrace builds a 3-rank trace with a message chain 0 → 1 → 2.
func pingTrace() *trace.Trace {
	tr := trace.New("ping", 3)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	for rank := trace.Rank(0); rank < 3; rank++ {
		tr.Append(rank, trace.Enter(0, f))
	}
	tr.Append(0, trace.Send(100, 1, 1, 8))
	tr.Append(1, trace.Recv(200, 0, 1, 8))
	tr.Append(1, trace.Send(300, 2, 2, 8))
	tr.Append(2, trace.Recv(400, 1, 2, 8))
	for rank := trace.Rank(0); rank < 3; rank++ {
		tr.Append(rank, trace.Leave(500, f))
	}
	return tr
}

func TestNoViolationsOnCleanTrace(t *testing.T) {
	if v := Violations(pingTrace(), 50); len(v) != 0 {
		t.Fatalf("violations on clean trace: %+v", v)
	}
}

func TestInjectedSkewIsDetected(t *testing.T) {
	tr := pingTrace()
	// Rank 1's clock is 150 behind: its recv at 200 becomes 50, before
	// the send at 100.
	skewed, err := InjectSkew(tr, []trace.Duration{0, -150, 0})
	if err != nil {
		t.Fatal(err)
	}
	v := Violations(skewed, 50)
	if len(v) != 1 {
		t.Fatalf("violations = %+v, want 1", v)
	}
	if v[0].Src != 0 || v[0].Dst != 1 {
		t.Fatalf("violation endpoints: %+v", v[0])
	}
	if v[0].Deficit != 100+50-(200-150) {
		t.Fatalf("deficit = %d", v[0].Deficit)
	}
}

func TestCorrectRemovesViolations(t *testing.T) {
	tr := pingTrace()
	skewed, err := InjectSkew(tr, []trace.Duration{0, -150, -400})
	if err != nil {
		t.Fatal(err)
	}
	fixed, info, err := Correct(skewed, 50)
	if err != nil {
		t.Fatal(err)
	}
	if info.ViolationsBefore == 0 {
		t.Fatal("skew not detected before correction")
	}
	if info.ViolationsAfter != 0 {
		t.Fatalf("violations remain after correction: %+v", info)
	}
	if !info.Converged {
		t.Fatalf("constant-offset correction should converge: %+v", info)
	}
	if err := fixed.Validate(); err != nil {
		t.Fatalf("corrected trace invalid: %v", err)
	}
	// Renormalization keeps the earliest event where it was.
	f0, _ := skewed.Span()
	f1, _ := fixed.Span()
	if f0 != f1 {
		t.Fatalf("first event moved: %d -> %d", f0, f1)
	}
}

func TestApplyErrors(t *testing.T) {
	tr := pingTrace()
	if _, err := Apply(tr, []trace.Duration{1, 2}); err == nil {
		t.Fatal("offset count mismatch accepted")
	}
}

func TestApplyEmptyTrace(t *testing.T) {
	tr := trace.New("empty", 2)
	out, err := Apply(tr, []trace.Duration{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumEvents() != 0 {
		t.Fatal("events appeared from nowhere")
	}
}

func TestCorrectionPreservesAnalysis(t *testing.T) {
	// Skew a real workload trace, correct it, and check that the
	// segments are restored to (close to) their true timings.
	cfg := workloads.DefaultFD4()
	cfg.Ranks = 16
	cfg.Iterations = 4
	cfg.InterruptRank = 5
	tr, err := workloads.FD4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	skew := make([]trace.Duration, 16)
	rng := rand.New(rand.NewSource(9))
	for i := range skew {
		skew[i] = trace.Duration(rng.Intn(20_000_000) - 10_000_000) // ±10ms
	}
	skewed, err := InjectSkew(tr, skew)
	if err != nil {
		t.Fatal(err)
	}
	before := Violations(skewed, trace.Microsecond)
	if len(before) == 0 {
		t.Fatal("±10ms skew produced no violations in a tightly coupled run")
	}
	fixed, info, err := Correct(skewed, trace.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if info.ViolationsAfter != 0 {
		t.Fatalf("%d violations remain", info.ViolationsAfter)
	}
	if err := fixed.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnmatchedMessagesIgnored(t *testing.T) {
	tr := trace.New("unmatched", 2)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	tr.Append(0, trace.Enter(0, f))
	tr.Append(0, trace.Recv(10, 1, 1, 8)) // no matching send
	tr.Append(0, trace.Leave(20, f))
	tr.Append(1, trace.Enter(0, f))
	tr.Append(1, trace.Send(15, 0, 2, 8)) // different tag, no recv
	tr.Append(1, trace.Leave(20, f))
	if v := Violations(tr, 1); len(v) != 0 {
		t.Fatalf("violations from unmatched messages: %+v", v)
	}
}

// Property: Correct always eliminates all violations for random constant
// skews (constant offsets are exactly recoverable), and Apply(InjectSkew)
// round-trips span-start invariance.
func TestCorrectConstantSkewProperty(t *testing.T) {
	base := pingChain(6)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		skew := make([]trace.Duration, 6)
		for i := range skew {
			skew[i] = trace.Duration(rng.Intn(1000) - 500)
		}
		skewed, err := InjectSkew(base, skew)
		if err != nil {
			return false
		}
		fixed, info, err := Correct(skewed, 10)
		if err != nil || !info.Converged || info.ViolationsAfter != 0 {
			return false
		}
		return fixed.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// pingChain builds an n-rank chain 0→1→…→n-1 with generous slack so any
// |skew| < 500 stays correctable.
func pingChain(n int) *trace.Trace {
	tr := trace.New("chain", n)
	f := tr.AddRegion("f", trace.ParadigmUser, trace.RoleFunction)
	for rank := trace.Rank(0); rank < trace.Rank(n); rank++ {
		tr.Append(rank, trace.Enter(0, f))
	}
	t0 := trace.Time(10_000)
	for i := 0; i < n-1; i++ {
		tr.Append(trace.Rank(i), trace.Send(t0, trace.Rank(i+1), int32(i), 8))
		tr.Append(trace.Rank(i+1), trace.Recv(t0+2_000, trace.Rank(i), int32(i), 8))
		t0 += 10_000
	}
	for rank := trace.Rank(0); rank < trace.Rank(n); rank++ {
		tr.Append(rank, trace.Leave(t0+10_000, f))
	}
	return tr
}

// TestMatchAllocsBoundedOnWideTraces matches the ops of 64 ranks that
// address peers spread over a 65 536-rank trace, as a hostile archive may
// declare, on four workers. Match's own per-rank slices and its
// fan-outs' error slots cost about 170 bytes per declared rank, and each
// worker's peer counters 8; a channel index whose memory grew with the
// rank count per rank, such as per-rank peer counters, would add 512 KiB
// for each rank with ops.
func TestMatchAllocsBoundedOnWideTraces(t *testing.T) {
	defer parallel.SetJobs(parallel.SetJobs(4))
	const nranks = 1 << 16
	rng := rand.New(rand.NewSource(1))
	ops := make([][]Op, nranks)
	nops := 0
	for i := 0; i < 64; i++ {
		rank := rng.Intn(nranks)
		for e := int32(0); e < 64; e++ {
			ops[rank] = append(ops[rank], Op{
				Time: trace.Time(e), Event: e, Peer: trace.Rank(rng.Intn(nranks)),
				Tag: int32(rng.Intn(3)), Recv: rng.Intn(2) == 0,
			})
			nops++
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Match(nranks, ops)
	runtime.ReadMemStats(&after)
	bound := uint64(256*nranks + 256*nops)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("Match over %d ranks and %d ops allocated %d bytes, want <= %d", nranks, nops, got, bound)
	}
}

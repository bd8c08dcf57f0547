// Package tracetest holds helpers for tests that read PVTR archives of
// both versions, and a generator of random well-nested traces.
package tracetest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"

	"perfvar/internal/trace"
)

// V1 converts a version-2 PVTR archive (what trace.Write produces) to
// version 1: it patches the version word and strips the rank index.
// Readers take both versions, so a test can run each entry path on each.
func V1(v2 []byte) ([]byte, error) {
	h, err := trace.Stream(bytes.NewReader(v2), func(trace.Rank, trace.Event) error { return trace.ErrStopStream })
	if err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(v2[4:]); v != 2 {
		return nil, fmt.Errorf("tracetest: archive version %d, want 2", v)
	}
	v1 := bytes.Clone(v2[:len(v2)-8*len(h.Procs)])
	binary.LittleEndian.PutUint32(v1[4:], 1)
	return v1, nil
}

// WriteV1File writes the version-1 form of the version-2 archive at src
// to dst.
func WriteV1File(dst, src string) error {
	v2, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	v1, err := V1(v2)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, v1, 0o644)
}

// Nested returns a random well-nested trace of the given ranks, a pure
// function of seed. Each rank repeats the user region "dom" between 2
// and 6 times, and inside each invocation opens and closes a random
// stack of "dom" itself, the user region "work", and the sync-classified
// regions "MPI_Wait" and "MPI_Allreduce" (and, when seed is odd, the
// OpenMP barrier "omp_barrier"), so the trace holds tracked regions that
// recurse, sync regions nested in tracked ones and sync regions nested in
// sync ones. Timestamps advance by 0 to 9 per event, so zero-length
// invocations occur too.
func Nested(seed int64, ranks int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder(fmt.Sprintf("nested-%d", seed), ranks)
	regions := []trace.RegionID{
		b.Region("dom", trace.ParadigmUser, trace.RoleFunction),
		b.Region("work", trace.ParadigmUser, trace.RoleFunction),
		b.Region("MPI_Wait", trace.ParadigmMPI, trace.RoleWait),
		b.Region("MPI_Allreduce", trace.ParadigmMPI, trace.RoleCollective),
	}
	if seed%2 != 0 {
		regions = append(regions, b.Region("omp_barrier", trace.ParadigmOpenMP, trace.RoleBarrier))
	}
	dom := regions[0]
	for rank := trace.Rank(0); int(rank) < ranks; rank++ {
		now := trace.Time(0)
		tick := func() trace.Time { now += trace.Time(rng.Intn(10)); return now }
		for s, n := 0, 2+rng.Intn(5); s < n; s++ {
			b.Enter(rank, tick(), dom)
			var stack []trace.RegionID
			for op, ops := 0, rng.Intn(16); op < ops; op++ {
				if len(stack) == 0 || rng.Intn(2) == 0 {
					r := regions[rng.Intn(len(regions))]
					b.Enter(rank, tick(), r)
					stack = append(stack, r)
				} else {
					b.Leave(rank, tick(), stack[len(stack)-1])
					stack = stack[:len(stack)-1]
				}
			}
			for len(stack) > 0 {
				b.Leave(rank, tick(), stack[len(stack)-1])
				stack = stack[:len(stack)-1]
			}
			b.Leave(rank, tick(), dom)
		}
	}
	return b.Trace()
}

package segment

import (
	"fmt"
	"math"

	"perfvar/internal/trace"
)

// Streaming segmentation: the per-rank pass of Compute, also used by the
// streaming analysis engine's fallback pass and the streaming lint
// runner's segmentation facts. A StreamSegmenter consumes one rank's
// events and collects completed segments with SOS-times; memory is
// O(completed segments + stack depth), independent of event count.

// SyncMask precomputes the classifier verdict for every region, turning
// the per-event classification into a slice index. A nil classifier means
// DefaultSync, as in Compute.
func SyncMask(regions []trace.Region, cls SyncClassifier) []bool {
	if cls == nil {
		cls = DefaultSync
	}
	mask := make([]bool, len(regions))
	for i, r := range regions {
		mask[i] = cls.IsSync(r)
	}
	return mask
}

// Prepare validates a streaming segmentation up front — the region must
// be defined and must not itself classify as synchronization
// (ErrSyncRegion, with Compute's wording) — and returns the per-region
// sync mask for NewStreamSegmenter.
func Prepare(regions []trace.Region, region trace.RegionID, cls SyncClassifier) ([]bool, error) {
	if region < 0 || int(region) >= len(regions) {
		return nil, fmt.Errorf("segment: region %d not defined", region)
	}
	if cls == nil {
		cls = DefaultSync
	}
	if cls.IsSync(regions[region]) {
		return nil, fmt.Errorf("%w (region %q; choose a user-code region or adjust the classifier)",
			ErrSyncRegion, regions[region].Name)
	}
	return SyncMask(regions, cls), nil
}

// StreamSegmenter cuts one rank's event stream into segments of one
// region: the single-region, never-evicting form of the CandidateSet
// kernel. Feed events in stream order, then call Finish to collect the
// segments.
type StreamSegmenter struct {
	k      *CandidateSet
	region trace.RegionID
}

// NewStreamSegmenter returns a segmenter for one rank, cutting at region
// (whose name is only used in error messages; other regions are named by
// id). syncMask comes from SyncMask or Prepare.
func NewStreamSegmenter(rank trace.Rank, region trace.RegionID, regionName string, syncMask []bool) *StreamSegmenter {
	return newStreamSegmenter(rank, region, syncMask, func(r trace.RegionID) string {
		if r == region {
			return regionName
		}
		return ""
	})
}

func newStreamSegmenter(rank trace.Rank, region trace.RegionID, syncMask []bool, name func(trace.RegionID) string) *StreamSegmenter {
	track := make([]bool, len(syncMask))
	if region >= 0 && int(region) < len(track) {
		track[region] = true
	}
	slot, n := trackSlots(track, syncMask)
	return &StreamSegmenter{k: newCandidateSet(rank, slot, n, syncMask, math.MaxInt, nil, name), region: region}
}

// Feed consumes one event.
func (s *StreamSegmenter) Feed(ev trace.Event) error { return s.k.Feed(ev) }

// Finish returns the completed segments, failing when the region is
// still open. Either way it hands the segmenter's buffer chunks back for
// reuse; the returned slice is a copy and the segmenter is spent.
func (s *StreamSegmenter) Finish() ([]Segment, error) {
	defer s.k.Release()
	if err := s.k.finish(); err != nil {
		return nil, err
	}
	segs, _ := s.k.Segments(s.region)
	return segs, nil
}

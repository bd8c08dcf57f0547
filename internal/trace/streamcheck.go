package trace

import "fmt"

// StreamChecker is the one structural checker: feed one rank's events in
// stream order and collect a recovering structural diagnosis without a
// materialized trace. Trace.Check, Validate, ValidateStreams and the
// lint analyzers all feed StreamCheckers, so the paths cannot drift.
type StreamChecker struct {
	rank      Rank
	regions   []Region
	metrics   []Metric
	nranks    int
	issues    []Issue
	prev      Time
	stack     []RegionID
	enterTime []Time
	lastVal   map[MetricID]float64
	lastTime  Time
	next      int // index of the next event fed
	done      bool
}

// NewStreamChecker returns a checker for one rank's stream, validating
// against the given definitions (the archive header's regions, metrics,
// and rank count).
func NewStreamChecker(rank Rank, regions []Region, metrics []Metric, nranks int) *StreamChecker {
	return &StreamChecker{
		rank:    rank,
		regions: regions,
		metrics: metrics,
		nranks:  nranks,
		lastVal: make(map[MetricID]float64),
	}
}

func (c *StreamChecker) report(i int, t Time, code IssueCode, format string, args ...any) {
	c.issues = append(c.issues, Issue{
		Code: code, Rank: c.rank, Event: i, Time: t,
		Message: fmt.Sprintf(format, args...),
	})
}

func (c *StreamChecker) validRegion(id RegionID) bool {
	return id >= 0 && int(id) < len(c.regions)
}

func (c *StreamChecker) regionName(id RegionID) string {
	if c.validRegion(id) {
		return c.regions[id].Name
	}
	return fmt.Sprintf("region(%d)", id)
}

// Feed checks the next event of the rank's stream.
func (c *StreamChecker) Feed(ev Event) {
	i := c.next
	c.next++
	if ev.Time < c.prev {
		c.report(i, ev.Time, IssueUnsorted, "timestamp %d before %d", ev.Time, c.prev)
	}
	c.prev = ev.Time
	c.lastTime = ev.Time
	switch ev.Kind {
	case KindEnter:
		if !c.validRegion(ev.Region) {
			c.report(i, ev.Time, IssueUndefinedRegion, "undefined region %d", ev.Region)
		}
		c.stack = append(c.stack, ev.Region)
		c.enterTime = append(c.enterTime, ev.Time)
	case KindLeave:
		if !c.validRegion(ev.Region) {
			c.report(i, ev.Time, IssueUndefinedRegion, "undefined region %d", ev.Region)
			return
		}
		if len(c.stack) == 0 {
			c.report(i, ev.Time, IssueLeaveWithoutEnter, "leave %q without enter", c.regionName(ev.Region))
			return
		}
		if top := c.stack[len(c.stack)-1]; top != ev.Region {
			// Recover: if the region is open further down the stack,
			// pop the unclosed inner regions through it; otherwise
			// treat the leave as stray and keep the stack.
			at := -1
			for j := len(c.stack) - 1; j >= 0; j-- {
				if c.stack[j] == ev.Region {
					at = j
					break
				}
			}
			if at < 0 {
				c.report(i, ev.Time, IssueLeaveWithoutEnter, "leave %q without enter (inside %q)",
					c.regionName(ev.Region), c.regionName(top))
				return
			}
			c.report(i, ev.Time, IssueMismatchedLeave, "leave %q while inside %q",
				c.regionName(ev.Region), c.regionName(top))
			c.stack = c.stack[:at+1]
			c.enterTime = c.enterTime[:at+1]
		}
		if ev.Time < c.enterTime[len(c.enterTime)-1] {
			c.report(i, ev.Time, IssueLeaveBeforeEnter, "leave %q at %d before enter at %d",
				c.regionName(ev.Region), ev.Time, c.enterTime[len(c.enterTime)-1])
		}
		c.stack = c.stack[:len(c.stack)-1]
		c.enterTime = c.enterTime[:len(c.enterTime)-1]
	case KindMetric:
		if ev.Metric < 0 || int(ev.Metric) >= len(c.metrics) {
			c.report(i, ev.Time, IssueUndefinedMetric, "undefined metric %d", ev.Metric)
			return
		}
		m := c.metrics[ev.Metric]
		if m.Mode == MetricAccumulated {
			if last, ok := c.lastVal[ev.Metric]; ok && ev.Value < last {
				c.report(i, ev.Time, IssueMetricDecreased,
					"accumulated metric %q decreased (%g -> %g)", m.Name, last, ev.Value)
			}
			c.lastVal[ev.Metric] = ev.Value
		}
	case KindSend, KindRecv:
		if ev.Peer < 0 || int(ev.Peer) >= c.nranks {
			c.report(i, ev.Time, IssueUndefinedPeer, "undefined peer rank %d", ev.Peer)
		}
		if ev.Bytes < 0 {
			c.report(i, ev.Time, IssueNegativeBytes, "negative message size %d", ev.Bytes)
		}
	default:
		c.report(i, ev.Time, IssueUnknownKind, "unknown event kind %d", ev.Kind)
	}
}

// Finish reports stream-level issues (regions still open at end of
// stream) and returns every issue found, in event order. Feeding more
// events after Finish is not supported.
func (c *StreamChecker) Finish() []Issue {
	if !c.done {
		c.done = true
		if len(c.stack) != 0 {
			c.issues = append(c.issues, Issue{
				Code: IssueUnclosedRegion, Rank: c.rank, Event: -1, Time: c.lastTime,
				Message: fmt.Sprintf("%d regions never left (innermost %q)",
					len(c.stack), c.regionName(c.stack[len(c.stack)-1])),
			})
		}
	}
	return c.issues
}

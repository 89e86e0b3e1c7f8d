package core

import (
	"fmt"

	"asdsim/internal/obs"
)

// Policy is one of the five prefetch-priority policies of §3.5, in order
// of decreasing conservativeness. The Final Scheduler may issue a command
// from the Low Priority Queue only when the active policy's condition
// holds.
type Policy int

// The five policies, §3.5, most conservative first.
const (
	// PolicyIdleSystem: CAQ empty and Reorder Queues empty.
	PolicyIdleSystem Policy = 1
	// PolicyNoIssuable: CAQ empty and the Reorder Queues hold no
	// issuable commands.
	PolicyNoIssuable Policy = 2
	// PolicyCAQEmpty: CAQ empty.
	PolicyCAQEmpty Policy = 3
	// PolicyCAQAlmostEmpty: CAQ has at most one entry and the LPQ is
	// full.
	PolicyCAQAlmostEmpty Policy = 4
	// PolicyTimestamp: the first LPQ entry is older than the first CAQ
	// entry.
	PolicyTimestamp Policy = 5
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyIdleSystem:
		return "idle-system"
	case PolicyNoIssuable:
		return "no-issuable"
	case PolicyCAQEmpty:
		return "caq-empty"
	case PolicyCAQAlmostEmpty:
		return "caq-almost-empty"
	case PolicyTimestamp:
		return "timestamp"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// QueueState is the memory-controller snapshot a policy decision needs.
type QueueState struct {
	CAQLen             int
	ReorderLen         int
	ReorderHasIssuable bool
	LPQLen             int
	LPQCap             int
	// Arrival timestamps of the queue heads (CPU cycles); valid only
	// when the corresponding queue is non-empty.
	LPQHeadArrival uint64
	CAQHeadArrival uint64
}

// Allows reports whether policy p permits issuing the head of the LPQ
// given the queue state st. The LPQ must be non-empty. The policies are
// cumulative: each less-conservative policy also issues whenever any
// more-conservative one would, which realises the paper's "in order of
// decreasing conservativeness" ordering for every queue state.
//
//asd:hotpath
func (p Policy) Allows(st QueueState) bool {
	if st.LPQLen == 0 || p < PolicyIdleSystem {
		return false
	}
	if st.CAQLen == 0 && st.ReorderLen == 0 {
		return true // condition (1)
	}
	if p >= PolicyNoIssuable && st.CAQLen == 0 && !st.ReorderHasIssuable {
		return true // condition (2)
	}
	if p >= PolicyCAQEmpty && st.CAQLen == 0 {
		return true // condition (3)
	}
	if p >= PolicyCAQAlmostEmpty && st.CAQLen <= 1 && st.LPQLen >= st.LPQCap {
		return true // condition (4)
	}
	if p >= PolicyTimestamp && (st.CAQLen == 0 || st.LPQHeadArrival < st.CAQHeadArrival) {
		return true // condition (5)
	}
	return false
}

// SchedulerConfig parameterises the adaptive policy selector.
type SchedulerConfig struct {
	// EpochReads matches the ASD epoch (§3.5: "the policy is adjusted
	// using the same epoch size that is used to compute Stream Length
	// Histograms").
	EpochReads int
	// RaiseThreshold: at an epoch boundary, conflict counts at or above
	// this move the policy one step more conservative.
	RaiseThreshold int
	// LowerThreshold: conflict counts at or below this move the policy
	// one step less conservative.
	LowerThreshold int
	// Fixed pins the scheduler to one policy (disables adaptation);
	// zero means adaptive. Figure 11's ablation uses this.
	Fixed Policy
}

// DefaultSchedulerConfig returns thresholds scaled to the paper's
// 2000-read epoch: more than 1% of reads conflicting tightens the policy,
// under 0.25% loosens it.
func DefaultSchedulerConfig() SchedulerConfig {
	return SchedulerConfig{EpochReads: 2000, RaiseThreshold: 20, LowerThreshold: 5}
}

// AdaptiveScheduler selects among the five policies using the per-epoch
// count of regular commands delayed by previously issued prefetches.
type AdaptiveScheduler struct {
	cfg      SchedulerConfig
	policy   Policy
	reads    int
	conflict int

	// PolicyEpochs counts epochs spent in each policy (index 1..5).
	PolicyEpochs [6]uint64
	// TotalConflicts accumulates across the run.
	TotalConflicts uint64

	bus *obs.Bus // nil when no observer is attached
}

// Validate reports the first problem NewAdaptiveScheduler would
// reject: a non-positive EpochReads, or a Fixed policy that is neither
// zero nor one of the five.
func (c *SchedulerConfig) Validate() error {
	if c.EpochReads <= 0 {
		return fmt.Errorf("core: EpochReads must be positive, got %d", c.EpochReads)
	}
	if c.Fixed != 0 && (c.Fixed < PolicyIdleSystem || c.Fixed > PolicyTimestamp) {
		return fmt.Errorf("core: invalid fixed policy %d", c.Fixed)
	}
	return nil
}

// NewAdaptiveScheduler returns a scheduler; adaptive mode starts at the
// most conservative policy and loosens as evidence allows. It panics on
// a cfg that Validate rejects.
func NewAdaptiveScheduler(cfg SchedulerConfig) *AdaptiveScheduler {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	s := &AdaptiveScheduler{cfg: cfg, policy: PolicyIdleSystem}
	if cfg.Fixed != 0 {
		s.policy = cfg.Fixed
	}
	return s
}

// Policy returns the active policy.
//
//asd:hotpath
func (s *AdaptiveScheduler) Policy() Policy { return s.policy }

// SetObserver attaches a probe bus (nil detaches).
func (s *AdaptiveScheduler) SetObserver(b *obs.Bus) { s.bus = b }

// OnConflict records that a regular command in the Reorder Queues could
// not proceed because it conflicted with a previously issued prefetch.
//
//asd:hotpath
func (s *AdaptiveScheduler) OnConflict() {
	s.conflict++
	s.TotalConflicts++
}

// OnRead advances the epoch clock by one Read command (observed at CPU
// cycle now); at each epoch boundary the policy is re-evaluated.
//
//asd:hotpath
func (s *AdaptiveScheduler) OnRead(now uint64) {
	s.reads++
	if s.reads < s.cfg.EpochReads {
		return
	}
	s.PolicyEpochs[s.policy]++
	prev := s.policy
	if s.cfg.Fixed == 0 {
		switch {
		case s.conflict >= s.cfg.RaiseThreshold && s.policy > PolicyIdleSystem:
			s.policy--
		case s.conflict <= s.cfg.LowerThreshold && s.policy < PolicyTimestamp:
			s.policy++
		}
	}
	if s.bus.On(obs.KindSchedPolicy) {
		s.bus.Emit(obs.Event{Kind: obs.KindSchedPolicy, Cycle: now,
			V1: int64(s.policy), V2: int64(s.conflict), V3: int64(prev)})
	}
	s.reads = 0
	s.conflict = 0
}

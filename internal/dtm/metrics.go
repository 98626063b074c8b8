package dtm

import (
	"reflect"
	"sync/atomic"

	"qracn/internal/metrics"
)

// StageLatencies are the client runtime's always-on per-stage latency
// histograms: where a transaction's wall-clock time goes. Recording is a
// pair of atomic adds per event, cheap enough to leave on in production.
type StageLatencies struct {
	// Read is one first-access quorum read, including busy retries and
	// quorum failovers.
	Read metrics.LatencyHistogram
	// PrefetchBatch is one batched prefetch round (Tx.Prefetch).
	PrefetchBatch metrics.LatencyHistogram
	// Prepare is one 2PC prepare fan-out round trip.
	Prepare metrics.LatencyHistogram
	// Commit is a whole top-level commit (prepare rounds + decision).
	Commit metrics.LatencyHistogram
}

// Metrics aggregates protocol-level counters for one Runtime. All fields are
// updated atomically and may be read at any time.
type Metrics struct {
	Commits       atomic.Uint64 // top-level commits
	ParentAborts  atomic.Uint64 // full re-executions
	SubAborts     atomic.Uint64 // partial rollbacks (sub-transaction retries)
	BusyBackoffs  atomic.Uint64 // waits caused by protected objects
	RemoteReads   atomic.Uint64 // quorum read round-trips
	Prepares      atomic.Uint64 // 2PC prepare rounds
	PrepareFails  atomic.Uint64 // prepare rounds that voted no
	ReadOnlyFasts atomic.Uint64 // read-only validations (no 2PC)
	// CheckpointRollbacks counts partial rollbacks performed by the
	// checkpointing executor (the QR-CP comparison system).
	CheckpointRollbacks atomic.Uint64
	// BatchReads counts batched quorum read rounds (Tx.Prefetch); each also
	// counts once in RemoteReads.
	BatchReads atomic.Uint64
	// PrefetchedObjects counts objects whose first-access read was served by
	// a batched prefetch round instead of its own quorum fan-out.
	PrefetchedObjects atomic.Uint64
	// TransportRetries counts transport-level reconnect attempts (TCP client
	// re-dials after dead connections).
	TransportRetries atomic.Uint64

	// Suspicions counts failure-detector alive→suspected transitions.
	Suspicions atomic.Uint64
	// Probes counts half-open probe admissions of suspected nodes.
	Probes atomic.Uint64
	// Readmissions counts suspected nodes readmitted after a probe answered.
	Readmissions atomic.Uint64
	// Failovers counts quorum re-selections forced by member errors (the
	// retry excluded the failed members and picked a fresh quorum).
	Failovers atomic.Uint64
	// StatsQuorumRetries counts FetchStats rounds that had to re-select
	// their read quorum after incomplete answers.
	StatsQuorumRetries atomic.Uint64
	// Repairs counts read-repair pushes sent to stale quorum members.
	Repairs atomic.Uint64
	// DecisionRetries counts decision fan-out rounds re-sent to participants
	// that had not yet acked the 2PC outcome.
	DecisionRetries atomic.Uint64
	// DecisionsDropped counts participants abandoned with an undelivered
	// decision after the decide budget expired; each is left to the
	// cooperative termination protocol.
	DecisionsDropped atomic.Uint64

	// SingleShardCommits counts committed transactions whose accesses all
	// fell in one quorum group (sharded runtimes only — the fast path that
	// never crosses group boundaries).
	SingleShardCommits atomic.Uint64
	// CrossShardCommits counts committed transactions that spanned two or
	// more quorum groups (per-group prepares under one 2PC).
	CrossShardCommits atomic.Uint64
	// CrossShardAborts counts cross-shard commit attempts rejected at
	// prepare time (validation failure or busy objects in any group).
	CrossShardAborts atomic.Uint64

	// OverloadBackoffs counts jittered same-node retries after a
	// StatusOverloaded answer (backpressure honoured, not failover).
	OverloadBackoffs atomic.Uint64
	// BudgetExhausted counts operations abandoned because the transaction's
	// shared retry budget (failover + busy + overload) ran out.
	BudgetExhausted atomic.Uint64
	// HedgesFired counts hedged quorum reads: the extra-replica request
	// issued after the hedge delay elapsed with the quorum incomplete.
	HedgesFired atomic.Uint64
	// HedgeWins counts hedged reads where the hedge replica's answer let the
	// read complete before the slow original member responded.
	HedgeWins atomic.Uint64

	// Per-cause abort attribution (forensics). Every recorded abort event —
	// partial or full — increments exactly one of these.
	AbortsReadValidation atomic.Uint64 // stale read-set detected by validation
	AbortsLockConflict   atomic.Uint64 // protected object (commit flag held elsewhere)
	AbortsCommitRound    atomic.Uint64 // 2PC prepare round rejected
	AbortsDeadline       atomic.Uint64 // retry budget / context deadline expired
	AbortsOverload       atomic.Uint64 // node backpressure past the retry budget
	// Block-index histogram of recorded aborts: which ACN Block detected the
	// conflict. Block 0 is the top-level context (including commit time).
	AbortsBlock0     atomic.Uint64
	AbortsBlock1     atomic.Uint64
	AbortsBlock2     atomic.Uint64
	AbortsBlock3Plus atomic.Uint64
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	Commits             uint64
	ParentAborts        uint64
	SubAborts           uint64
	BusyBackoffs        uint64
	RemoteReads         uint64
	Prepares            uint64
	PrepareFails        uint64
	ReadOnlyFasts       uint64
	CheckpointRollbacks uint64
	BatchReads          uint64
	PrefetchedObjects   uint64
	TransportRetries    uint64
	Suspicions          uint64
	Probes              uint64
	Readmissions        uint64
	Failovers           uint64
	StatsQuorumRetries  uint64
	Repairs             uint64
	DecisionRetries     uint64
	DecisionsDropped    uint64
	SingleShardCommits  uint64
	CrossShardCommits   uint64
	CrossShardAborts    uint64
	OverloadBackoffs    uint64
	BudgetExhausted     uint64
	HedgesFired         uint64
	HedgeWins           uint64

	AbortsReadValidation uint64
	AbortsLockConflict   uint64
	AbortsCommitRound    uint64
	AbortsDeadline       uint64
	AbortsOverload       uint64
	AbortsBlock0         uint64
	AbortsBlock1         uint64
	AbortsBlock2         uint64
	AbortsBlock3Plus     uint64
}

// Add accumulates another snapshot into s, field by field. It walks the
// struct by reflection so a counter added to Metrics and Snapshot can never
// be silently dropped from aggregation again (harness and bench both sum
// per-client snapshots through this). All Snapshot fields must be uint64 —
// enforced by a test alongside the Metrics↔Snapshot name check.
func (s *Snapshot) Add(o Snapshot) {
	sv := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(o)
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetUint(sv.Field(i).Uint() + ov.Field(i).Uint())
	}
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Commits:             m.Commits.Load(),
		ParentAborts:        m.ParentAborts.Load(),
		SubAborts:           m.SubAborts.Load(),
		BusyBackoffs:        m.BusyBackoffs.Load(),
		RemoteReads:         m.RemoteReads.Load(),
		Prepares:            m.Prepares.Load(),
		PrepareFails:        m.PrepareFails.Load(),
		ReadOnlyFasts:       m.ReadOnlyFasts.Load(),
		CheckpointRollbacks: m.CheckpointRollbacks.Load(),
		BatchReads:          m.BatchReads.Load(),
		PrefetchedObjects:   m.PrefetchedObjects.Load(),
		TransportRetries:    m.TransportRetries.Load(),
		Suspicions:          m.Suspicions.Load(),
		Probes:              m.Probes.Load(),
		Readmissions:        m.Readmissions.Load(),
		Failovers:           m.Failovers.Load(),
		StatsQuorumRetries:  m.StatsQuorumRetries.Load(),
		Repairs:             m.Repairs.Load(),
		DecisionRetries:     m.DecisionRetries.Load(),
		DecisionsDropped:    m.DecisionsDropped.Load(),
		SingleShardCommits:  m.SingleShardCommits.Load(),
		CrossShardCommits:   m.CrossShardCommits.Load(),
		CrossShardAborts:    m.CrossShardAborts.Load(),
		OverloadBackoffs:    m.OverloadBackoffs.Load(),
		BudgetExhausted:     m.BudgetExhausted.Load(),
		HedgesFired:         m.HedgesFired.Load(),
		HedgeWins:           m.HedgeWins.Load(),

		AbortsReadValidation: m.AbortsReadValidation.Load(),
		AbortsLockConflict:   m.AbortsLockConflict.Load(),
		AbortsCommitRound:    m.AbortsCommitRound.Load(),
		AbortsDeadline:       m.AbortsDeadline.Load(),
		AbortsOverload:       m.AbortsOverload.Load(),
		AbortsBlock0:         m.AbortsBlock0.Load(),
		AbortsBlock1:         m.AbortsBlock1.Load(),
		AbortsBlock2:         m.AbortsBlock2.Load(),
		AbortsBlock3Plus:     m.AbortsBlock3Plus.Load(),
	}
}

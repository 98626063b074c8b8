package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/quorum"
	"qracn/internal/server"
	"qracn/internal/store"
	"qracn/internal/transport"
	"qracn/internal/wire"
)

// errCoordinatorKilled is what every protocol message of a dead coordinator
// turns into.
var errCoordinatorKilled = errors.New("coordinator killed")

// killClient wraps a transport.Client and simulates the coordinator process
// dying at one exact injection point in the 2PC message sequence: the
// killAt-th prepare-or-decision send. In kill-before mode the fatal message
// is never delivered; in kill-after mode it reaches the participant but the
// process dies before reading the ack (the ack is lost with it). Every
// later protocol message fails — a dead process sends nothing.
type killClient struct {
	inner     transport.Client
	killAt    int
	afterSend bool

	mu  sync.Mutex
	seq int
}

func (k *killClient) Call(ctx context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
	if req.Kind != wire.KindPrepare && req.Kind != wire.KindDecision {
		return k.inner.Call(ctx, to, req)
	}
	k.mu.Lock()
	n := k.seq
	k.seq++
	k.mu.Unlock()
	switch {
	case n < k.killAt:
		return k.inner.Call(ctx, to, req)
	case n == k.killAt && k.afterSend:
		_, _ = k.inner.Call(ctx, to, req) // delivered; ack dies with the process
		return nil, errCoordinatorKilled
	default:
		return nil, errCoordinatorKilled
	}
}

func (k *killClient) sent() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.seq
}

// coordKillScenario runs one transfer with the coordinator killed at the
// given injection point, optionally crash-restarting one in-doubt
// participant, then drives the termination protocol until the in-doubt
// tables drain and audits the surviving state. It returns the cluster-wide
// resolution counters for the aggregate report.
func coordKillScenario(t *testing.T, killAt int, afterSend, restartParticipant bool) server.ResolutionStats {
	t.Helper()
	const (
		accounts = 4
		initial  = int64(1_000)
		amount   = int64(100)
	)
	c := cluster.New(cluster.Config{
		Servers:       10,
		StatsWindow:   time.Hour,
		WALDir:        t.TempDir(),
		FsyncInterval: -1, // fsync every append: acked state is durable
		SnapshotEvery: -1,
		ResolveAfter:  time.Millisecond,
		TTLAbortAfter: 25 * time.Millisecond,
	})
	defer c.Close()
	objs := map[store.ObjectID]store.Value{}
	for i := 0; i < accounts; i++ {
		objs[store.ID("acct", i)] = store.Int64(initial)
	}
	c.Seed(objs)

	kc := &killClient{inner: c.Net, killAt: killAt, afterSend: afterSend}
	rt := dtm.New(dtm.Config{
		Tree:       c.Tree,
		Client:     kc,
		Alive:      c.Net.Alive,
		ClientSeed: 1,
		Seed:       1,
		NoRepair:   true, // divergence must be healed by resolution alone
		// A dead coordinator never re-executes, and its decision retries
		// fail instantly — keep both budgets tight.
		MaxAttempts:   1,
		DecideTimeout: 5 * time.Millisecond,
		BackoffBase:   20 * time.Microsecond,
		BackoffMax:    200 * time.Microsecond,
	})
	ctx := context.Background()
	// The transfer under the gun: acct/0 → acct/1. An error just means the
	// kill landed before the outcome was decided or acked.
	_ = rt.Atomic(ctx, func(tx *dtm.Tx) error {
		fv, err := tx.Read(store.ID("acct", 0))
		if err != nil {
			return err
		}
		tv, err := tx.Read(store.ID("acct", 1))
		if err != nil {
			return err
		}
		if err := tx.Write(store.ID("acct", 0), store.Int64(store.AsInt64(fv)-amount)); err != nil {
			return err
		}
		return tx.Write(store.ID("acct", 1), store.Int64(store.AsInt64(tv)+amount))
	})

	if restartParticipant {
		// Crash-restart one in-doubt participant (or node 0 if the kill
		// landed before any vote was durable): its in-doubt table must
		// rebuild from the WAL, not from the lost process memory.
		victim := quorum.NodeID(0)
		for _, n := range c.Nodes {
			if len(n.InDoubt()) > 0 {
				victim = n.ID()
				break
			}
		}
		if err := c.CrashRestart(victim); err != nil {
			t.Fatalf("kill@%d: crash-restart node %d: %v", killAt, victim, err)
		}
	}

	// Drive the cooperative termination protocol until every vote is
	// decided. The TTL path needs real time past TTLAbortAfter, so this
	// loops rather than resolving in one pass.
	deadline := time.Now().Add(5 * time.Second)
	for c.Resolution().InDoubt > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("kill@%d after=%v restart=%v: in-doubt not drained: %+v",
				killAt, afterSend, restartParticipant, c.Resolution())
		}
		c.ResolveAll(ctx)
		time.Sleep(time.Millisecond)
	}

	// Audit: protections all released, write quorums agree, money conserved.
	auditCoordKill(t, c, killAt, accounts, initial)
	return c.Resolution()
}

// auditCoordKill checks the three invariants every kill point must leave
// behind: no protection survives resolution, the transfer is all-or-nothing
// across its write quorum, and balances are conserved at the max-version
// view.
func auditCoordKill(t *testing.T, c *cluster.Cluster, killAt int, accounts int, initial int64) {
	t.Helper()
	type cell struct {
		ver uint64
		val int64
	}
	maxVer := map[store.ObjectID]cell{}
	applied := map[store.ObjectID]int{} // replicas holding version 2 (the transfer's writes)
	for _, n := range c.Nodes {
		for id, o := range n.Store().Snapshot() {
			if o.Protected {
				t.Fatalf("kill@%d: node %d left %s protected by %s after resolution",
					killAt, n.ID(), id, o.ProtectedBy)
			}
			v := store.AsInt64(o.Value)
			if cur, ok := maxVer[id]; !ok || o.Version > cur.ver {
				maxVer[id] = cell{ver: o.Version, val: v}
			} else if o.Version == cur.ver && v != cur.val {
				t.Fatalf("kill@%d: replica divergence on %s: version %d is both %d (node %d) and %d",
					killAt, id, o.Version, cur.val, n.ID(), v)
			}
			if o.Version == 2 {
				applied[id]++
			}
		}
	}
	// All-or-nothing: the two written accounts must have been applied on
	// the same number of replicas — either none (abort) or the full write
	// quorum (commit). A count mismatch is a half-resolved transaction.
	if applied[store.ID("acct", 0)] != applied[store.ID("acct", 1)] {
		t.Fatalf("kill@%d: partial commit: acct/0 applied on %d replicas, acct/1 on %d",
			killAt, applied[store.ID("acct", 0)], applied[store.ID("acct", 1)])
	}
	var total int64
	for i := 0; i < accounts; i++ {
		total += maxVer[store.ID("acct", i)].val
	}
	if want := int64(accounts) * initial; total != want {
		t.Fatalf("kill@%d: money not conserved: %d, want %d", killAt, total, want)
	}
}

// TestChaosCoordinatorKillMatrix kills the coordinator at EVERY injection
// point in the 2PC message sequence — before and after each prepare send
// and each decision send — and requires that with read-repair disabled the
// cooperative termination protocol alone drains every in-doubt vote,
// conserves the bank balance, and leaves zero cross-replica divergence. A
// second sweep additionally crash-restarts one in-doubt participant so the
// durable in-doubt table (not process memory) carries the protocol.
func TestChaosCoordinatorKillMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix skipped in -short mode")
	}
	// Probe: a kill point beyond the whole message sequence measures it.
	const probe = 1 << 30
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour})
	kc := &killClient{inner: c.Net, killAt: probe}
	rt := dtm.New(dtm.Config{Tree: c.Tree, Client: kc, Alive: c.Net.Alive, ClientSeed: 1, Seed: 1, NoRepair: true})
	c.Seed(map[store.ObjectID]store.Value{store.ID("acct", 0): store.Int64(1), store.ID("acct", 1): store.Int64(1)})
	if err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		for _, a := range []int{0, 1} {
			v, err := tx.Read(store.ID("acct", a))
			if err != nil {
				return err
			}
			if err := tx.Write(store.ID("acct", a), v); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("probe transfer: %v", err)
	}
	messages := kc.sent() // prepare fan-out + decision fan-out
	c.Close()
	if messages < 4 {
		t.Fatalf("probe measured %d protocol messages, want at least 4", messages)
	}
	t.Logf("matrix: %d protocol messages per transfer, %d scenarios",
		messages, 2*2*messages)

	var agg server.ResolutionStats
	scenarios := 0
	for _, restart := range []bool{false, true} {
		for _, afterSend := range []bool{false, true} {
			for k := 0; k < messages; k++ {
				agg.Add(coordKillScenario(t, k, afterSend, restart))
				scenarios++
			}
		}
	}
	// The matrix must actually exercise the protocol: some kills land after
	// a decision reached a peer (peer-commit), some before any decision
	// existed (peer-abort via the never-voted promise, or TTL among
	// uniformly in-doubt peers), and the restart sweep must rebuild
	// in-doubt state from the log.
	if agg.PeerCommits == 0 {
		t.Error("matrix never resolved an in-doubt vote from a peer's commit decision")
	}
	if agg.PeerAborts+agg.TTLAborts == 0 {
		t.Error("matrix never aborted an undecided vote")
	}
	if agg.RecoveredInDoubt == 0 {
		t.Error("restart sweep never recovered an in-doubt vote from the WAL")
	}
	t.Logf("matrix: %d scenarios, resolution outcomes: %+v", scenarios, agg)

	if path := os.Getenv("QRACN_COORDKILL_REPORT"); path != "" {
		report := struct {
			Messages   int                    `json:"messages"`
			Scenarios  int                    `json:"scenarios"`
			Conserved  bool                   `json:"conserved"`
			Resolution server.ResolutionStats `json:"resolution"`
		}{messages, scenarios, !t.Failed(), agg}
		data, _ := json.MarshalIndent(report, "", "  ")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Errorf("report: %v", err)
		}
	}
}

// TestChaosTTLAbortVsPeerResolutionRace pins the precedence rule of the
// termination protocol: a transaction eligible for TTL abort must still
// commit when any quorum peer holds its commit decision — the authoritative
// answer always wins over the timeout.
func TestChaosTTLAbortVsPeerResolutionRace(t *testing.T) {
	c := cluster.New(cluster.Config{
		Servers:     3,
		StatsWindow: time.Hour,
		// Both deadlines already expired by resolve time: the entry is
		// TTL-eligible the moment it is examined.
		ResolveAfter:  time.Nanosecond,
		TTLAbortAfter: time.Nanosecond,
	})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"k": store.Int64(1)})

	ctx := context.Background()
	prep := func(node quorum.NodeID) *wire.Response {
		return c.Nodes[node].Handle(ctx, &wire.Request{
			Kind: wire.KindPrepare,
			TxID: "race-tx",
			Prepare: &wire.PrepareRequest{
				Reads:  []store.ReadDesc{{ID: "k", Version: 1}},
				Writes: []store.WriteDesc{{ID: "k", Value: store.Int64(7), NewVersion: 2}},
				Quorum: []quorum.NodeID{0, 1, 2},
			},
		})
	}
	for _, n := range []quorum.NodeID{0, 1, 2} {
		if resp := prep(n); resp.Status != wire.StatusOK || !resp.Prepare.Vote {
			t.Fatalf("prepare on %d: %+v", n, resp)
		}
	}
	// The decision reaches node 1 only; the coordinator dies there.
	resp := c.Nodes[1].Handle(ctx, &wire.Request{
		Kind: wire.KindDecision,
		TxID: "race-tx",
		Decision: &wire.DecisionRequest{
			Commit:  true,
			Writes:  []store.WriteDesc{{ID: "k", Value: store.Int64(7), NewVersion: 2}},
			Release: []store.ObjectID{"k"},
		},
	})
	if resp.Status != wire.StatusOK {
		t.Fatalf("decision on 1: %+v", resp)
	}

	// Node 0 resolves: TTL-eligible, but node 1 answers committed — the
	// peer decision must win and propagate to node 2.
	if got := c.Nodes[0].ResolveNow(ctx, c.Net); got != 1 {
		t.Fatalf("ResolveNow resolved %d entries, want 1", got)
	}
	stats := c.Resolution()
	if stats.TTLAborts != 0 {
		t.Fatalf("TTL abort fired with a peer holding the commit decision: %+v", stats)
	}
	if stats.PeerCommits == 0 {
		t.Fatalf("resolution did not commit from the peer's decision: %+v", stats)
	}
	for _, n := range []quorum.NodeID{0, 1, 2} {
		v, ver, err := c.Nodes[n].Store().Get("k")
		if err != nil || ver != 2 || store.AsInt64(v) != 7 {
			t.Fatalf("node %d: k = %v v%d (err %v), want 7 v2", n, v, ver, err)
		}
	}
	if stats.InDoubt != 0 {
		t.Fatalf("in-doubt entries left: %+v", stats)
	}
}

// TestChaosLateCommitAfterAbortPromiseRefused pins the tombstone safety
// property: once a node promises abort to a resolving peer (it never voted
// on the transaction), a late prepare must be refused and a late commit
// decision must be rejected rather than applied — otherwise the promise the
// peer aborted on would be broken.
func TestChaosLateCommitAfterAbortPromiseRefused(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 3, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"k": store.Int64(1)})
	ctx := context.Background()

	// A resolving peer asks about a transaction this node never saw: the
	// node promises abort.
	resp := c.Nodes[0].Handle(ctx, &wire.Request{
		Kind:     wire.KindTxStatus,
		TxID:     "ghost-tx",
		TxStatus: &wire.TxStatusRequest{From: 1},
	})
	if resp.Status != wire.StatusOK || resp.TxStatus.State != wire.TxStateAborted {
		t.Fatalf("status for unknown tx: %+v", resp)
	}

	// The coordinator's late prepare must now be refused…
	prep := c.Nodes[0].Handle(ctx, &wire.Request{
		Kind: wire.KindPrepare,
		TxID: "ghost-tx",
		Prepare: &wire.PrepareRequest{
			Reads:  []store.ReadDesc{{ID: "k", Version: 1}},
			Writes: []store.WriteDesc{{ID: "k", Value: store.Int64(9), NewVersion: 2}},
			Quorum: []quorum.NodeID{0, 1, 2},
		},
	})
	if prep.Status != wire.StatusOK || prep.Prepare.Vote {
		t.Fatalf("late prepare after abort promise voted yes: %+v", prep)
	}
	// …and a late commit decision rejected without applying.
	dec := c.Nodes[0].Handle(ctx, &wire.Request{
		Kind: wire.KindDecision,
		TxID: "ghost-tx",
		Decision: &wire.DecisionRequest{
			Commit:  true,
			Writes:  []store.WriteDesc{{ID: "k", Value: store.Int64(9), NewVersion: 2}},
			Release: []store.ObjectID{"k"},
		},
	})
	if dec.Status != wire.StatusError {
		t.Fatalf("conflicting late commit accepted: %+v", dec)
	}
	if v, ver, err := c.Nodes[0].Store().Get("k"); err != nil || ver != 1 || store.AsInt64(v) != 1 {
		t.Fatalf("tombstoned commit leaked into the store: %v v%d (err %v)", v, ver, err)
	}
}

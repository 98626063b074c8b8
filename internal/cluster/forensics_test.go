package cluster_test

import (
	"context"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/quorum"
	"qracn/internal/store"
	"qracn/internal/trace"
	"qracn/internal/wire"
)

// protectEverywhere runs a raw 2PC prepare as the given transaction on every
// node, leaving the key commit-protected (the decision never arrives until
// releaseEverywhere).
func protectEverywhere(t *testing.T, c *cluster.Cluster, txID string, key store.ObjectID) {
	t.Helper()
	ctx := context.Background()
	var all []quorum.NodeID
	for _, n := range c.Nodes {
		all = append(all, n.ID())
	}
	for _, n := range c.Nodes {
		resp := n.Handle(ctx, &wire.Request{
			Kind: wire.KindPrepare,
			TxID: txID,
			Prepare: &wire.PrepareRequest{
				Reads:  []store.ReadDesc{{ID: key, Version: 1}},
				Writes: []store.WriteDesc{{ID: key, Value: store.Int64(7), NewVersion: 2}},
				Quorum: all,
			},
		})
		if resp.Status != wire.StatusOK || resp.Prepare == nil || !resp.Prepare.Vote {
			t.Fatalf("prepare %s on node %d: %+v", txID, n.ID(), resp)
		}
	}
}

// releaseEverywhere aborts the holding transaction so the cluster shuts down
// with no dangling protections.
func releaseEverywhere(t *testing.T, c *cluster.Cluster, txID string, key store.ObjectID) {
	t.Helper()
	ctx := context.Background()
	for _, n := range c.Nodes {
		resp := n.Handle(ctx, &wire.Request{
			Kind:     wire.KindDecision,
			TxID:     txID,
			Decision: &wire.DecisionRequest{Commit: false, Release: []store.ObjectID{key}},
		})
		if resp.Status != wire.StatusOK {
			t.Fatalf("abort %s on node %d: %+v", txID, n.ID(), resp)
		}
	}
}

// TestConflictAttributionEndToEnd is the tentpole's acceptance path: a
// transaction that dies on a commit-locked key must leave exactly one abort
// event attributing the failure to (lock-conflict, the key, the block it
// struck, the holder's transaction ID piggybacked from the server), and the
// servers' own recorders must rank the key hot.
func TestConflictAttributionEndToEnd(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"k": store.Int64(1)})

	const holder = "c9-t1-a1"
	protectEverywhere(t, c, holder, "k")
	defer releaseEverywhere(t, c, holder, "k")

	// One attempt, one busy re-read, microsecond backoff: the read aborts on
	// the protection instead of outwaiting it.
	rt := c.Runtime(2, dtm.Config{
		Seed:            3,
		MaxAttempts:     1,
		ReadBusyRetries: 1,
		BackoffBase:     time.Microsecond,
		BackoffMax:      2 * time.Microsecond,
	})
	err := rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		_, err := tx.Read("k")
		return err
	})
	if err == nil {
		t.Fatal("read of a protected key with one attempt should fail")
	}

	snap := rt.Forensics().Snapshot(10)
	if len(snap.Aborts) != 1 {
		t.Fatalf("want exactly one abort event, got %d: %+v", len(snap.Aborts), snap.Aborts)
	}
	ev := snap.Aborts[0]
	if ev.Cause != forensics.CauseLockConflict {
		t.Errorf("cause = %s, want lock-conflict", ev.CauseName)
	}
	if ev.Key != "k" {
		t.Errorf("key = %q, want %q", ev.Key, "k")
	}
	if ev.ConflictingTxID != holder {
		t.Errorf("conflicting tx = %q, want %q (server witness not piggybacked)", ev.ConflictingTxID, holder)
	}
	if ev.BlockIndex != 0 {
		t.Errorf("block index = %d, want 0 (top-level read)", ev.BlockIndex)
	}
	if ev.Partial {
		t.Error("a top-level abort must not be marked partial")
	}
	if ev.TxID == "" {
		t.Error("abort event lost its transaction ID")
	}

	m := rt.Metrics().Snapshot()
	if m.AbortsLockConflict != 1 {
		t.Errorf("AbortsLockConflict = %d, want 1", m.AbortsLockConflict)
	}
	if m.AbortsBlock0 != 1 {
		t.Errorf("AbortsBlock0 = %d, want 1", m.AbortsBlock0)
	}

	// The nodes observed the same conflict server-side: the key must appear
	// in the cluster-wide hot-key ranking.
	cf := c.Forensics(10)
	found := false
	for _, h := range cf.HotKeys {
		if h.Key == "k" {
			found = true
		}
	}
	if !found {
		t.Errorf("server-side hot keys missing %q: %+v", "k", cf.HotKeys)
	}
}

// TestForensicsFetchRPC drives the wire path the inspect subcommand uses:
// KindForensics against live nodes returns the merged server-side snapshot.
func TestForensicsFetchRPC(t *testing.T) {
	c := cluster.New(cluster.Config{Servers: 4, StatsWindow: time.Hour})
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"k": store.Int64(1)})

	const holder = "c9-t2-a1"
	protectEverywhere(t, c, holder, "k")
	defer releaseEverywhere(t, c, holder, "k")

	rt := c.Runtime(3, dtm.Config{
		Seed:            5,
		MaxAttempts:     1,
		ReadBusyRetries: 1,
		BackoffBase:     time.Microsecond,
		BackoffMax:      2 * time.Microsecond,
	})
	_ = rt.Atomic(context.Background(), func(tx *dtm.Tx) error {
		_, err := tx.Read("k")
		return err
	})

	var nodes []quorum.NodeID
	for _, n := range c.Nodes {
		nodes = append(nodes, n.ID())
	}
	snap, err := dtm.FetchForensics(context.Background(), c.Net, nodes, 5)
	if err != nil {
		t.Fatalf("FetchForensics: %v", err)
	}
	found := false
	for _, h := range snap.HotKeys {
		if h.Key == "k" && h.Conflicts > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("fetched snapshot misses the conflicted key: %+v", snap.HotKeys)
	}

	// A NoForensics cluster answers the same RPC with empty state rather
	// than an error, so mixed fleets stay inspectable.
	off := cluster.New(cluster.Config{Servers: 3, StatsWindow: time.Hour, NoForensics: true})
	defer off.Close()
	var offNodes []quorum.NodeID
	for _, n := range off.Nodes {
		offNodes = append(offNodes, n.ID())
	}
	offSnap, err := dtm.FetchForensics(context.Background(), off.Net, offNodes, 5)
	if err != nil {
		t.Fatalf("FetchForensics on -no-forensics cluster: %v", err)
	}
	if offSnap.TotalAborts != 0 || len(offSnap.Aborts) != 0 {
		t.Fatalf("disabled cluster leaked events: %+v", offSnap)
	}
}

// TestTCPForensicsFsyncSpans runs contended transfers on a durable,
// traced cluster over loopback TCP and reads back every cluster-wide view:
// the servers' conflict witnesses, the group-commit fsync waits, the serve
// spans of the traced client, and a termination pass over the network.
func TestTCPForensicsFsyncSpans(t *testing.T) {
	c, err := cluster.NewDurable(cluster.Config{
		Servers:       4,
		StatsWindow:   time.Hour,
		WALDir:        t.TempDir(),
		TraceCapacity: 4096,
		TCP:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Seed(map[store.ObjectID]store.Value{"a": store.Int64(100), "b": store.Int64(100)})

	rt := c.Runtime(1, dtm.Config{Seed: 1, Tracer: trace.New(4096), TraceSample: 1})
	other := c.Runtime(2, dtm.Config{Seed: 2})
	ctx := context.Background()
	move := func(tx *dtm.Tx, from, to store.ObjectID) error {
		fv, err := tx.Read(from)
		if err != nil {
			return err
		}
		tv, err := tx.Read(to)
		if err != nil {
			return err
		}
		if err := tx.Write(from, store.Int64(store.AsInt64(fv)-1)); err != nil {
			return err
		}
		return tx.Write(to, store.Int64(store.AsInt64(tv)+1))
	}
	for i := 0; i < 3; i++ {
		attempts := 0
		if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
			attempts++
			if err := move(tx, "a", "b"); err != nil {
				return err
			}
			if attempts > 1 {
				return nil
			}
			// A competing transfer commits after this attempt's reads, so
			// its prepare fails validation on the servers and retries.
			return other.Atomic(ctx, func(o *dtm.Tx) error { return move(o, "b", "a") })
		}); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}

	if snap := c.Forensics(10); snap.TotalAborts == 0 {
		t.Error("Forensics recorded no server-side conflict")
	}
	if n := c.FsyncWait().Count(); n == 0 {
		t.Error("FsyncWait recorded no group-commit wait on a durable cluster")
	}
	if len(c.Spans("")) == 0 {
		t.Error("Spans returned no serve span for a traced client")
	}
	if n := c.ResolveAll(ctx); n != 0 || c.Resolution().InDoubt != 0 {
		t.Errorf("ResolveAll resolved %d, %d still in doubt; want nothing to resolve", n, c.Resolution().InDoubt)
	}
}

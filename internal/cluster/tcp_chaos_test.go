package cluster_test

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/health"
	"qracn/internal/quorum"
	"qracn/internal/store"
)

// transfer moves 3 units between two accounts; the bank workload the
// kill/restart tests drive.
func transfer(ctx context.Context, rt *dtm.Runtime, accounts, from, to int) error {
	return rt.Atomic(ctx, func(tx *dtm.Tx) error {
		if err := tx.Prefetch(store.ID("acct", from), store.ID("acct", to)); err != nil {
			return err
		}
		fv, err := tx.Read(store.ID("acct", from))
		if err != nil {
			return err
		}
		tv, err := tx.Read(store.ID("acct", to))
		if err != nil {
			return err
		}
		if err := tx.Write(store.ID("acct", from), store.Int64(store.AsInt64(fv)-3)); err != nil {
			return err
		}
		return tx.Write(store.ID("acct", to), store.Int64(store.AsInt64(tv)+3))
	})
}

// TestTCPKillRestartRepair kills a node mid-workload (on TCP: its real
// listener), checks the workload keeps committing through detector-driven
// failover, then cold-restarts the node (empty replica — its state died with
// the process) and checks read-repair brings it version-current and the
// detector readmits it, all without operator action.
func TestTCPKillRestartRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/restart chaos test skipped in -short mode")
	}
	bothTransports(t, testTCPKillRestartRepair)
}

func testTCPKillRestartRepair(t *testing.T, tcp bool) {
	const (
		accounts = 8
		initial  = int64(1_000)
	)
	c := cluster.New(cluster.Config{Servers: 10, StatsWindow: time.Hour, TCP: tcp})
	defer c.Close()
	objs := map[store.ObjectID]store.Value{}
	for i := 0; i < accounts; i++ {
		objs[store.ID("acct", i)] = store.Int64(initial)
	}
	c.Seed(objs)

	det := health.New(health.Config{SuspectAfter: 3, ProbeInterval: 50 * time.Millisecond})
	rt := c.DetectorRuntime(1, dtm.Config{
		Seed:           1,
		Health:         det,
		RequestTimeout: time.Second,
		BackoffBase:    50 * time.Microsecond,
		BackoffMax:     time.Millisecond,
	})
	ctx := context.Background()

	const victim = quorum.NodeID(4) // a leaf: its level keeps a majority without it
	rng := rand.New(rand.NewSource(7))
	doTransfer := func() {
		from := rng.Intn(accounts)
		to := (from + 1 + rng.Intn(accounts-1)) % accounts
		if err := transfer(ctx, rt, accounts, from, to); err != nil {
			t.Fatalf("transfer: %v", err)
		}
	}

	for i := 0; i < 10; i++ {
		doTransfer()
	}
	c.Kill(victim)
	for i := 0; i < 40; i++ {
		doTransfer() // must keep committing across the crash
	}
	if !det.IsSuspected(victim) {
		t.Fatalf("detector did not suspect killed node %d", victim)
	}

	// Cold restart: the process is back on its old address with nothing in
	// its store.
	if err := c.CrashRestart(victim); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Nodes[victim].Store().Version(store.ID("acct", 0)); ok {
		t.Fatalf("cold-restarted replica should be empty, has version %d", v)
	}

	// Ordinary reads double as probes; repair pushes follow reads that catch
	// the empty replica in their quorum. Drive reads until the replica is
	// version-current for every account.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := rt.Atomic(ctx, func(tx *dtm.Tx) error {
			ids := make([]store.ObjectID, accounts)
			for i := range ids {
				ids[i] = store.ID("acct", i)
			}
			if err := tx.Prefetch(ids...); err != nil {
				return err
			}
			for _, id := range ids {
				if _, err := tx.Read(id); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("read sweep: %v", err)
		}
		behind := 0
		for i := 0; i < accounts; i++ {
			id := store.ID("acct", i)
			var want uint64
			for _, n := range c.Nodes {
				if n.ID() == victim {
					continue
				}
				if v, ok := n.Store().Version(id); ok && v > want {
					want = v
				}
			}
			if v, ok := c.Nodes[victim].Store().Version(id); !ok || v < want {
				behind++
			}
		}
		if behind == 0 && !det.IsSuspected(victim) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	if det.IsSuspected(victim) {
		t.Fatalf("node %d not readmitted after restart", victim)
	}
	for i := 0; i < accounts; i++ {
		id := store.ID("acct", i)
		var want uint64
		for _, n := range c.Nodes {
			if n.ID() == victim {
				continue
			}
			if v, ok := n.Store().Version(id); ok && v > want {
				want = v
			}
		}
		got, ok := c.Nodes[victim].Store().Version(id)
		if !ok || got < want {
			t.Fatalf("account %d on restarted node: version %d, want %d", i, got, want)
		}
	}
	m := rt.Metrics().Snapshot()
	if m.Repairs == 0 {
		t.Fatal("restarted replica converged without any recorded repair push")
	}
	t.Logf("kill/restart: failovers=%d suspicions=%d probes=%d readmissions=%d repairs=%d",
		m.Failovers, m.Suspicions, m.Probes, m.Readmissions, m.Repairs)
}

// TestTCPRecoveryThroughput is the issue's acceptance experiment: a bank
// workload over 10 real TCP nodes, one node killed mid-run. Committed
// transfer throughput must recover to at least half its pre-fault rate
// within 2 seconds of the kill.
func TestTCPRecoveryThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP recovery test skipped in -short mode")
	}
	const (
		accounts = 16
		initial  = int64(10_000)
		clients  = 4
		warmup   = 800 * time.Millisecond
	)
	c := cluster.New(cluster.Config{
		Servers:     10,
		StatsWindow: time.Hour,
		ProtectTTL:  100 * time.Millisecond, // heal protections of clients stopped mid-commit
		TCP:         true,
	})
	defer c.Close()
	objs := map[store.ObjectID]store.Value{}
	for i := 0; i < accounts; i++ {
		objs[store.ID("acct", i)] = store.Int64(initial)
	}
	c.Seed(objs)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var commits atomic.Int64
	var wg sync.WaitGroup
	rts := make([]*dtm.Runtime, clients)
	for ci := 0; ci < clients; ci++ {
		rts[ci] = c.DetectorRuntime(ci+1, dtm.Config{
			Seed:           int64(ci) + 1,
			RequestTimeout: time.Second,
			BackoffBase:    50 * time.Microsecond,
			BackoffMax:     time.Millisecond,
			Health: health.New(health.Config{
				SuspectAfter:  3,
				ProbeInterval: 250 * time.Millisecond,
			}),
		})
	}
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ci)*31 + 5))
			for ctx.Err() == nil {
				from := rng.Intn(accounts)
				to := (from + 1 + rng.Intn(accounts-1)) % accounts
				if err := transfer(ctx, rts[ci], accounts, from, to); err == nil {
					commits.Add(1)
				}
			}
		}(ci)
	}

	// Pre-fault rate over the warmup window (skip the first 200ms of
	// connection establishment).
	time.Sleep(200 * time.Millisecond)
	preStart := commits.Load()
	time.Sleep(warmup)
	preRate := float64(commits.Load()-preStart) / warmup.Seconds()
	if preRate <= 0 {
		t.Fatal("no pre-fault throughput")
	}

	const victim = quorum.NodeID(5)
	killAt := time.Now()
	c.Kill(victim)

	// Find the first 250ms window whose rate clears half the pre-fault rate.
	var recovered time.Duration
	found := false
	for elapsed := time.Duration(0); elapsed < 10*time.Second; {
		windowStart := commits.Load()
		time.Sleep(250 * time.Millisecond)
		elapsed = time.Since(killAt)
		rate := float64(commits.Load()-windowStart) / 0.25
		if rate >= preRate/2 {
			recovered = elapsed
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("throughput never recovered to 50%% of pre-fault rate (%.0f tx/s)", preRate)
	}
	if recovered > 2*time.Second {
		t.Fatalf("recovery took %v, want <= 2s (pre-fault %.0f tx/s)", recovered, preRate)
	}

	// Let the workload run a little longer post-recovery, then stop and audit
	// conservation.
	time.Sleep(250 * time.Millisecond)
	cancel()
	wg.Wait()
	time.Sleep(150 * time.Millisecond) // let protection leases of interrupted commits lapse

	// Restart the victim cold and converge it via read sweeps.
	if err := c.CrashRestart(victim); err != nil {
		t.Fatal(err)
	}
	auditCtx := context.Background()
	rt := rts[0]
	deadline := time.Now().Add(5 * time.Second)
	converged := false
	for time.Now().Before(deadline) && !converged {
		var total int64
		if err := rt.Atomic(auditCtx, func(tx *dtm.Tx) error {
			total = 0
			ids := make([]store.ObjectID, accounts)
			for i := range ids {
				ids[i] = store.ID("acct", i)
			}
			if err := tx.Prefetch(ids...); err != nil {
				return err
			}
			for _, id := range ids {
				v, err := tx.Read(id)
				if err != nil {
					return err
				}
				total += store.AsInt64(v)
			}
			return nil
		}); err != nil {
			t.Fatalf("audit: %v", err)
		}
		if total != accounts*initial {
			t.Fatalf("money not conserved after recovery: %d, want %d", total, accounts*initial)
		}
		converged = true
		for i := 0; i < accounts; i++ {
			id := store.ID("acct", i)
			var want uint64
			for _, n := range c.Nodes {
				if n.ID() == victim {
					continue
				}
				if v, ok := n.Store().Version(id); ok && v > want {
					want = v
				}
			}
			if v, ok := c.Nodes[victim].Store().Version(id); !ok || v < want {
				converged = false
				break
			}
		}
		if !converged {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !converged {
		t.Fatal("restarted node never converged via read-repair")
	}

	var failovers, repairs uint64
	for _, r := range rts {
		s := r.Metrics().Snapshot()
		failovers += s.Failovers
		repairs += s.Repairs
	}
	t.Logf("recovery: pre-fault %.0f tx/s, recovered to >=50%% in %v; failovers=%d repairs=%d",
		preRate, recovered, failovers, repairs)
}

// Package cluster assembles a QR-DTM deployment: N quorum-node servers
// arranged in a logical ternary tree, joined by one transport.Network, plus
// factories for client runtimes. It stands in for the paper's 30-node
// testbed (10 servers, up to 20 client nodes on a 1 Gbps switched network).
// The default network is the simulated channel network, which injects the
// latency per message; Config.TCP puts every node behind a real loopback
// listener instead, and every method works the same on both.
package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"qracn/internal/dtm"
	"qracn/internal/forensics"
	"qracn/internal/metrics"
	"qracn/internal/quorum"
	"qracn/internal/server"
	"qracn/internal/shard"
	"qracn/internal/store"
	"qracn/internal/trace"
	"qracn/internal/transport"
	"qracn/internal/wal"
)

// Config sizes and tunes a cluster.
type Config struct {
	// Servers is the number of quorum nodes (default 10, like the paper).
	Servers int
	// Degree is the quorum tree fan-out (default 3, the paper's ternary
	// tree).
	Degree int
	// Shards, when > 1, partitions the Servers into that many independent
	// quorum groups (contiguous, near-equal, each with its own tree of the
	// same Degree). Every node serves the resulting map over
	// wire.KindShardMap, client runtimes route per object through it, and
	// on a durable cluster each shard keeps its WAL under
	// WALDir/shard-s/node-i. 0 or 1 leaves the cluster unsharded.
	Shards int
	// Network tunes the simulated interconnect (ignored with TCP).
	Network transport.ChannelConfig
	// TCP, when set, joins the nodes over loopback TCP instead of the
	// simulated network: each node listens on 127.0.0.1, every message
	// crosses a real connection through the wire codec, and each client
	// runtime dials connections of its own.
	TCP bool
	// StatsWindow is the contention observation window on every node.
	StatsWindow time.Duration
	// ProtectTTL, when positive, enables lease expiry of protections so the
	// cluster self-heals from clients killed mid-commit (failure tests).
	ProtectTTL time.Duration
	// Now injects a clock for server meters (nil: time.Now).
	Now func() time.Time
	// WALDir, when non-empty, gives every node a durable commit log under
	// WALDir/node-i — the full write path (group-commit fsync before ack)
	// runs even on the in-process transport, so benchmarks measure the
	// durability cost without real networking. NewDurable returns a WAL
	// that cannot open as an error; New panics on it.
	WALDir string
	// FsyncInterval is the group-commit accumulation window (0: wal
	// default; negative: fsync every append).
	FsyncInterval time.Duration
	// SnapshotEvery is the automatic checkpoint threshold in records
	// (0: server default; negative: only explicit checkpoints).
	SnapshotEvery int
	// TraceCapacity, when positive, gives every node a tracer ring of that
	// many events and spans, so traced transactions get server-side serve
	// spans and Cluster.Spans can reassemble cross-node timelines.
	TraceCapacity int
	// ResolveAfter is how long a participant's yes vote may sit undecided
	// before it starts querying its quorum peers for the outcome
	// (0: server default 5s; tests use milliseconds).
	ResolveAfter time.Duration
	// TTLAbortAfter is the last-resort in-doubt abort deadline once a
	// complete peer round finds everyone equally undecided (0: server
	// default 60s). Must exceed the coordinators' decide budget.
	TTLAbortAfter time.Duration
	// MaxInflight, when positive, bounds concurrently executing gated
	// requests per node; excess requests queue up to QueueDepth and are
	// answered StatusOverloaded beyond that (admission control / load
	// shedding). 0 disables the gate.
	MaxInflight int
	// QueueDepth bounds the per-node admission wait queue (0 with
	// MaxInflight set: 4×MaxInflight).
	QueueDepth int
	// MaxQueueAge is the admission queue's adaptive-LIFO threshold (0:
	// server default 100ms).
	MaxQueueAge time.Duration
	// ForensicsRing sizes every node's abort-forensics event rings (0:
	// forensics.DefaultRingSize). Client runtimes built by Runtime /
	// DetectorRuntime inherit the setting.
	ForensicsRing int
	// NoForensics disables abort forensics on every node and on client
	// runtimes built by Runtime / DetectorRuntime (A/B overhead runs).
	NoForensics bool
}

// Cluster is a running deployment.
type Cluster struct {
	Tree  *quorum.Tree
	Net   transport.Network
	Nodes []*server.Node
	// Shards is the cluster's shard map (nil when unsharded).
	Shards *shard.Map

	cfg          Config // retained for CrashRestart node rebuilds
	resolversOn  bool
	resolverPoll time.Duration
}

// New builds and starts a cluster. See NewDurable for the error-returning
// form required when cfg.WALDir is set.
func New(cfg Config) *Cluster {
	c, err := NewDurable(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// NewDurable builds and starts a cluster, surfacing WAL open errors.
func NewDurable(cfg Config) (*Cluster, error) {
	if cfg.Servers == 0 {
		cfg.Servers = 10
	}
	if cfg.Degree == 0 {
		cfg.Degree = 3
	}
	c := &Cluster{Tree: quorum.NewTree(cfg.Servers, cfg.Degree), cfg: cfg}
	if cfg.TCP {
		c.Net = transport.NewTCPNetwork()
	} else {
		c.Net = transport.NewChannelNetwork(cfg.Network)
	}
	if cfg.Shards > 1 {
		c.Shards = shard.NewUniform(cfg.Servers, cfg.Shards, cfg.Degree)
	}
	for i := 0; i < cfg.Servers; i++ {
		n, err := c.startNode(quorum.NodeID(i))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
}

// startNode builds node id and puts it on the network in the recovery
// handshake order qracn-node uses: a durable node is reachable but refuses
// work with StatusUnavailable (clients fail over) while it replays its WAL,
// and opens for service only once version-current. Used at startup and by
// CrashRestart.
func (c *Cluster) startNode(id quorum.NodeID) (*server.Node, error) {
	cfg := c.cfg
	scfg := server.Config{
		StatsWindow:   cfg.StatsWindow,
		Now:           cfg.Now,
		SnapshotEvery: cfg.SnapshotEvery,
		ResolveAfter:  cfg.ResolveAfter,
		TTLAbortAfter: cfg.TTLAbortAfter,
		Shards:        c.Shards,
		MaxInflight:   cfg.MaxInflight,
		QueueDepth:    cfg.QueueDepth,
		MaxQueueAge:   cfg.MaxQueueAge,
		ForensicsRing: cfg.ForensicsRing,
		NoForensics:   cfg.NoForensics,
	}
	if cfg.TraceCapacity > 0 {
		scfg.Tracer = trace.New(cfg.TraceCapacity)
	}
	n := server.NewNode(id, scfg)
	if cfg.ProtectTTL > 0 {
		n.Store().SetProtectTTL(cfg.ProtectTTL, cfg.Now)
	}
	durable := cfg.WALDir != ""
	if durable {
		n.BeginRecovery()
	}
	c.Net.Register(id, n.Handle)
	c.Net.SetDown(id, false)
	if !durable {
		return n, nil
	}
	dir := filepath.Join(cfg.WALDir, fmt.Sprintf("node-%d", id))
	if c.Shards != nil {
		// Per-shard WAL layout: each quorum group owns a directory, so an
		// operator (or qracn-inspect wal) can reason about one shard's
		// durable state in isolation.
		dir = filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%d", c.Shards.HomeOf(id)), fmt.Sprintf("node-%d", id))
	}
	log, rec, err := wal.Open(dir, wal.Options{FsyncInterval: cfg.FsyncInterval})
	if err != nil {
		c.Net.SetDown(id, true)
		return nil, fmt.Errorf("cluster: node %d wal: %w", id, err)
	}
	n.AttachWAL(log)
	// FinishRecovery rather than a bare Restore: in-doubt prepares re-enter
	// the termination protocol with their protections, and recovered
	// decisions answer peers' status queries.
	n.FinishRecovery(rec)
	return n, nil
}

// CrashRestart simulates a process crash and cold restart of node id. On a
// durable cluster the node's WAL is crashed without a final flush (the
// unsynced tail is lost, exactly what a power cut leaves) and a fresh node
// replays snapshot and log — rebuilding its in-doubt table — behind the
// recovery handshake. On a volatile cluster the node comes back with an
// empty replica, the case read-repair and anti-entropy exist for.
func (c *Cluster) CrashRestart(id quorum.NodeID) error {
	old := c.Nodes[id]
	old.StopResolver()
	c.Net.SetDown(id, true)
	if w := old.WAL(); w != nil {
		w.Crash()
	}
	n, err := c.startNode(id)
	if err != nil {
		return err
	}
	c.Nodes[id] = n
	if c.resolversOn {
		n.StartResolver(c.Net, c.resolverPoll)
	}
	return nil
}

// Seed installs objects on every replica that owns them: full replication
// when unsharded, the owning quorum group's members only under a shard map
// (foreign replicas must never hold a shard's objects, or stale copies
// could answer reads routed by a future map version). Seed does no I/O: it
// writes no checkpoint, so on a durable cluster the seeded objects reach
// disk only with later writes, repairs or an explicit Node.Checkpoint. A
// test that crashes the whole cluster before then checkpoints first.
func (c *Cluster) Seed(objs map[store.ObjectID]store.Value) {
	for _, n := range c.Nodes {
		cp := make(map[store.ObjectID]store.Value, len(objs))
		for id, v := range objs {
			if c.Shards != nil && !c.Shards.GroupOf(id).Contains(n.ID()) {
				continue
			}
			if v != nil {
				cp[id] = v.CloneValue()
			} else {
				cp[id] = nil
			}
		}
		n.Store().SeedBatch(cp)
	}
}

// clampDecide bounds a runtime config's decision-delivery budget below this
// cluster's TTL-abort deadline — the termination-protocol safety invariant,
// enforced at the one layer that knows both values (see
// dtm.ClampDecideTimeout).
func (c *Cluster) clampDecide(cfg *dtm.Config) {
	ttl := c.cfg.TTLAbortAfter
	if ttl <= 0 {
		ttl = server.DefaultTTLAbortAfter
	}
	cfg.DecideTimeout = dtm.ClampDecideTimeout(cfg.DecideTimeout, ttl)
}

// Runtime creates a client runtime attached to this cluster. Fields of cfg
// that identify the cluster (Tree, Shards, Client, Alive) are filled in;
// the rest are taken as given, except that DecideTimeout is clamped below
// the cluster's TTL-abort deadline. The network's liveness oracle drives
// quorum selection (composed with the runtime's own failure detector),
// keeping fault tests deterministic. On TCP the runtime gets connections of
// its own, which count reconnects in its TransportRetries and close with
// the cluster. Safe for concurrent use.
func (c *Cluster) Runtime(clientSeed int, cfg dtm.Config) *dtm.Runtime {
	return c.runtime(clientSeed, cfg, c.Net.Alive)
}

// applyForensics propagates the cluster's forensics settings to a client
// runtime config unless the caller already chose its own.
func (c *Cluster) applyForensics(cfg *dtm.Config) {
	if cfg.ForensicsRing == 0 {
		cfg.ForensicsRing = c.cfg.ForensicsRing
	}
	if c.cfg.NoForensics {
		cfg.NoForensics = true
	}
}

// DetectorRuntime creates a client runtime WITHOUT the network's liveness
// oracle: node health is known only through the runtime's failure detector,
// exactly as on a real transport where no oracle exists. Chaos tests use it
// to exercise detector-driven failover end to end.
func (c *Cluster) DetectorRuntime(clientSeed int, cfg dtm.Config) *dtm.Runtime {
	return c.runtime(clientSeed, cfg, nil)
}

func (c *Cluster) runtime(clientSeed int, cfg dtm.Config, alive quorum.AliveFunc) *dtm.Runtime {
	cfg.Tree = c.Tree
	cfg.Shards = c.Shards
	cfg.Client = c.Net
	cfg.Alive = alive
	cfg.ClientSeed = clientSeed
	c.applyForensics(&cfg)
	c.clampDecide(&cfg)
	tcp, ok := c.Net.(*transport.TCPNetwork)
	if !ok {
		return dtm.New(cfg)
	}
	client := tcp.NewClient()
	cfg.Client = client
	rt := dtm.New(cfg)
	client.SetRetryCounter(&rt.Metrics().TransportRetries)
	return rt
}

// Kill marks a server unreachable (on TCP: its listener and connections
// close, so clients see refused dials). The node keeps its state.
func (c *Cluster) Kill(id quorum.NodeID) { c.Net.SetDown(id, true) }

// Revive marks a server reachable again. Its replica kept its state (a
// partition heal rather than a cold restart).
func (c *Cluster) Revive(id quorum.NodeID) { c.Net.SetDown(id, false) }

// StartResolvers launches every node's background termination loop over the
// cluster network, so participants stranded in-doubt by a dead coordinator
// resolve among themselves. Close stops them.
func (c *Cluster) StartResolvers(pollEvery time.Duration) {
	c.resolversOn, c.resolverPoll = true, pollEvery
	for _, n := range c.Nodes {
		n.StartResolver(c.Net, pollEvery)
	}
}

// ResolveAll drives one synchronous termination pass on every node (tests;
// deterministic alternative to StartResolvers). It returns the total number
// of in-doubt transactions resolved.
func (c *Cluster) ResolveAll(ctx context.Context) int {
	resolved := 0
	for _, n := range c.Nodes {
		resolved += n.ResolveNow(ctx, c.Net)
	}
	return resolved
}

// Close shuts the network down (with every client connection it made) and
// cleanly closes any commit logs.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		n.StopResolver()
	}
	c.Net.Close()
	for _, n := range c.Nodes {
		if w := n.WAL(); w != nil {
			w.Close()
		}
	}
}

// WALStats sums the commit-log counters across all nodes (zero value on a
// volatile cluster).
func (c *Cluster) WALStats() wal.Stats {
	var out wal.Stats
	for _, n := range c.Nodes {
		if w := n.WAL(); w != nil {
			out.Add(w.Stats())
		}
	}
	return out
}

// Resolution sums the termination-protocol counters across all nodes (the
// InDoubt field is the cluster-wide count of currently undecided votes).
func (c *Cluster) Resolution() server.ResolutionStats {
	var out server.ResolutionStats
	for _, n := range c.Nodes {
		out.Add(n.ResolutionStats())
	}
	return out
}

// Forensics merges the per-node abort-forensics snapshots — the server-side
// conflict witnesses — into one. topK bounds each node's hot-key table. It
// returns an empty snapshot on a NoForensics cluster.
func (c *Cluster) Forensics(topK int) *forensics.Snapshot {
	out := &forensics.Snapshot{}
	for _, n := range c.Nodes {
		if rec := n.Forensics(); rec != nil {
			out.Merge(rec.Snapshot(topK))
		}
	}
	return out
}

// Admission sums the overload-protection counters across all nodes.
func (c *Cluster) Admission() server.AdmissionStats {
	var out server.AdmissionStats
	for _, n := range c.Nodes {
		out.Add(n.AdmissionStats())
	}
	return out
}

// Spans merges the spans recorded by every node, optionally filtered to one
// trace ID (empty for everything). Nil on an untraced cluster.
func (c *Cluster) Spans(traceID string) []trace.Span {
	var out []trace.Span
	for _, n := range c.Nodes {
		out = append(out, n.Tracer().SpansFor(traceID)...)
	}
	return out
}

// FsyncWait merges the per-node group-commit wait histograms into one.
func (c *Cluster) FsyncWait() *metrics.LatencyHistogram {
	out := &metrics.LatencyHistogram{}
	for _, n := range c.Nodes {
		out.Merge(&n.Stages().FsyncWait)
	}
	return out
}

// ReviveAndRepair brings a node back and runs anti-entropy against a live
// peer so the healed replica serves fresh state immediately instead of
// waiting for future commits to overwrite it. It returns the number of
// objects repaired.
func (c *Cluster) ReviveAndRepair(ctx context.Context, id, peer quorum.NodeID) (int, error) {
	c.Revive(id)
	return c.Nodes[id].RepairFrom(ctx, c.Net, peer)
}

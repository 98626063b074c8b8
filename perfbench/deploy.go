package main

import (
	"fmt"
	"os"
	"time"

	"qracn/internal/acn"
	"qracn/internal/cluster"
	"qracn/internal/dtm"
	"qracn/internal/server"
	"qracn/internal/store"
	"qracn/internal/transport"
	"qracn/internal/unitgraph"
	"qracn/internal/wire"
	"qracn/internal/workload"
)

// client is one client node: a runtime, its hub and one executor per
// profile.
type client struct {
	rt    *dtm.Runtime
	hub   *acn.Hub
	execs []*acn.Executor
}

// deployment is one QR-ACN cluster with its clients, built from the public
// constructors with the settings of the figure harness's QR-ACN mode.
type deployment struct {
	spec    *workloadSpec
	w       workload.Workload
	tally   tally
	c       *cluster.Cluster
	walDir  string
	clients []*client
	lay     *layers // nil on an untraced deployment
	analyze time.Duration
}

// deploy builds a deployment and returns the time the set-up took: cluster
// build, WAL open, seeding, unitgraph.Analyze, and runtime, executor and
// hub creation. lay, when non-nil, wraps the transport, the codec and every
// node's handler. Durable commit logs are created under work.
func deploy(spec *workloadSpec, lay *layers, work string) (*deployment, time.Duration, error) {
	start := time.Now()
	w, t := spec.newBench()
	d := &deployment{spec: spec, w: w, tally: t, lay: lay}

	var codec wire.Codec = wire.Binary
	if lay != nil {
		codec = newTimedCodec(wire.Binary, lay)
	}
	ccfg := cluster.Config{
		Servers: spec.servers,
		Shards:  spec.shards,
		Network: transport.ChannelConfig{
			Latency: spec.latency,
			Seed:    1,
			Codec:   codec,
		},
		StatsWindow: spec.statsWindow,
	}
	if spec.durable {
		if err := os.MkdirAll(work, 0o755); err != nil {
			return nil, 0, fmt.Errorf("wal dir: %w", err)
		}
		dir, err := os.MkdirTemp(work, "wal-")
		if err != nil {
			return nil, 0, fmt.Errorf("wal dir: %w", err)
		}
		d.walDir = dir
		ccfg.WALDir = dir
	}
	c, err := cluster.NewDurable(ccfg)
	if err != nil {
		d.close()
		return nil, 0, err
	}
	d.c = c
	if lay != nil {
		for _, n := range c.Nodes {
			c.Net.Register(n.ID(), lay.wrapHandler(n.Handle))
		}
	}
	c.Seed(w.SeedObjects())

	profiles := w.Profiles()
	analyses := make([]*unitgraph.Analysis, len(profiles))
	t0 := time.Now()
	for i, p := range profiles {
		an, err := unitgraph.Analyze(p.Program)
		if err != nil {
			d.close()
			return nil, 0, fmt.Errorf("analyze %s: %w", p.Name, err)
		}
		analyses[i] = an
	}
	d.analyze = time.Since(t0)

	var net transport.Client = c.Net
	if lay != nil {
		net = &timedClient{inner: c.Net, l: lay}
	}
	for i := 0; i < clients; i++ {
		cl := &client{}
		// Filled in as Cluster.Runtime does, but with the benchmark's
		// transport; the piggyback hooks reach the hub created below.
		rt := dtm.New(dtm.Config{
			Tree:             c.Tree,
			Shards:           c.Shards,
			Client:           net,
			Alive:            c.Net.Alive,
			ClientSeed:       i + 1,
			Seed:             int64(i) + 1,
			BackoffBase:      50 * time.Microsecond,
			BackoffMax:       time.Millisecond,
			DecideTimeout:    dtm.ClampDecideTimeout(0, server.DefaultTTLAbortAfter),
			StatsEveryNReads: 16,
			StatsWanted:      func() []store.ObjectID { return cl.hub.Wanted() },
			StatsSink:        func(levels map[store.ObjectID]float64) { cl.hub.Sink(levels) },
		})
		cl.rt = rt
		cl.hub = acn.NewHub(rt, acn.HubConfig{})
		for _, an := range analyses {
			exec := acn.NewExecutor(rt, an, acn.Static(an))
			cl.execs = append(cl.execs, exec)
			cl.hub.Register(exec, acn.AlgoConfig{})
		}
		d.clients = append(d.clients, cl)
	}
	return d, time.Since(start), nil
}

// close shuts the cluster down and removes its commit logs.
func (d *deployment) close() {
	if d.c != nil {
		d.c.Close()
	}
	if d.walDir != "" {
		os.RemoveAll(d.walDir)
	}
}

// finalState merges the replicas: each object at its highest version
// across the nodes that hold it.
func (d *deployment) finalState() map[store.ObjectID]store.Value {
	state := make(map[store.ObjectID]store.Value)
	version := make(map[store.ObjectID]uint64)
	for _, n := range d.c.Nodes {
		for id, o := range n.Store().Snapshot() {
			if v, ok := version[id]; !ok || o.Version > v {
				version[id] = o.Version
				state[id] = o.Value
			}
		}
	}
	return state
}

// storeObjects counts the objects held across all replicas.
func (d *deployment) storeObjects() int {
	n := 0
	for _, node := range d.c.Nodes {
		n += node.Store().Len()
	}
	return n
}

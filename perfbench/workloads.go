package main

import (
	"fmt"
	"sync"
	"time"

	"qracn/internal/store"
	"qracn/internal/workload"
	"qracn/internal/workload/bank"
	"qracn/internal/workload/tpcc"
)

// workloadSpec fixes one workload: the deployment, the load and the exact
// check of its committed transactions. Nothing in it depends on the seed.
type workloadSpec struct {
	name string
	// servers quorum nodes in a ternary tree, split into shards groups
	// (0 or 1: unsharded).
	servers, shards int
	// latency is the simulated one-way hop (0: none).
	latency time.Duration
	// durable gives every node a commit log with the default group commit.
	durable bool
	// statsWindow is the nodes' contention window and the period at which
	// each client's hub refreshes.
	statsWindow time.Duration
	warmup      time.Duration
	// flips moves the bank hot class from branches to accounts at 1/3 of
	// the measured window and back at 2/3.
	flips bool
	// newBench builds the workload and a fresh tally for it.
	newBench func() (workload.Workload, tally)
}

// tally accumulates the parameters of every committed Execute call and
// verifies the final replica state against them. It must be safe for
// concurrent use.
type tally interface {
	record(profile int, params map[string]any)
	// verify returns how many objects it checked and a line per mismatch.
	verify(state map[store.ObjectID]store.Value) (checked int, mismatches []string)
}

// The client count is pinned to the host this benchmark was defined on
// (2 vCPUs): one closed-loop worker per client runtime.
const clients = 2

var tpccContended = tpcc.Config{
	Warehouses: 1, Districts: 4, CustomersPerDistrict: 20, Items: 100,
	MixNewOrder: 45, MixPayment: 43, MixDelivery: 4, MixOrderStatus: 4, MixStockLevel: 4,
	InitialStock: 10_000,
}

var tpccDelivery = tpcc.Config{
	Warehouses: 4, Districts: 10, CustomersPerDistrict: 20, Items: 100,
	MixDelivery: 100, InitialStock: 10_000,
}

var bankDefaults = bank.Config{
	Branches: 50, Accounts: 1000, HotBranches: 8, HotAccounts: 8,
	WritePct: 90, InitialBalance: 1_000_000, Amount: 5,
}

var specs = []*workloadSpec{
	{
		name: "tpcc-contended", servers: 10,
		statsWindow: 500 * time.Millisecond, warmup: 2 * time.Second,
		newBench: func() (workload.Workload, tally) {
			return tpcc.New(tpccContended), newTPCCTally(tpccContended)
		},
	},
	{
		name: "delivery-durable-4shard", servers: 10, shards: 4, durable: true,
		statsWindow: 500 * time.Millisecond, warmup: 2 * time.Second,
		newBench: func() (workload.Workload, tally) {
			return tpcc.New(tpccDelivery), newTPCCTally(tpccDelivery)
		},
	},
	{
		name: "bank-flip-1ms", servers: 10, latency: time.Millisecond, flips: true,
		statsWindow: 500 * time.Millisecond, warmup: 2 * time.Second,
		newBench: func() (workload.Workload, tally) {
			return bank.New(bankDefaults), newBankTally(bankDefaults)
		},
	},
}

func specByName(name string) (*workloadSpec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// bankTally holds the net transfer into every branch and account.
type bankTally struct {
	cfg bank.Config

	mu       sync.Mutex
	branches []int64
	accounts []int64
}

func newBankTally(cfg bank.Config) *bankTally {
	return &bankTally{cfg: cfg, branches: make([]int64, cfg.Branches), accounts: make([]int64, cfg.Accounts)}
}

func (t *bankTally) record(profile int, p map[string]any) {
	if profile != bank.ProfileTransfer {
		return
	}
	amt := int64(p["amount"].(int))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.branches[p["srcBranch"].(int)] -= amt
	t.branches[p["dstBranch"].(int)] += amt
	t.accounts[p["srcAcct"].(int)] -= amt
	t.accounts[p["dstAcct"].(int)] += amt
}

func (t *bankTally) verify(state map[store.ObjectID]store.Value) (int, []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var bad []string
	checked := 0
	check := func(class string, deltas []int64) {
		for i, d := range deltas {
			id := store.ID(class, i)
			checked++
			if got, want := intOf(state[id]), t.cfg.InitialBalance+d; got != want {
				bad = append(bad, fmt.Sprintf("%s = %d, want %d", id, got, want))
			}
		}
	}
	check("branch", t.branches)
	check("account", t.accounts)
	return checked, bad
}

// tpccTally counts committed work per district, warehouse and stock row.
type tpccTally struct {
	cfg tpcc.Config

	mu         sync.Mutex
	newOrders  [][]int64 // [w][d]
	deliveries [][]int64 // [w][d]
	payDist    [][]int64 // [w][d] sum of payment amounts
	payWH      []int64   // [w]
	ordered    [][]int64 // [w][item] quantity ordered
}

func newTPCCTally(cfg tpcc.Config) *tpccTally {
	t := &tpccTally{cfg: cfg, payWH: make([]int64, cfg.Warehouses)}
	grid := func(n int) [][]int64 {
		g := make([][]int64, cfg.Warehouses)
		for w := range g {
			g[w] = make([]int64, n)
		}
		return g
	}
	t.newOrders, t.deliveries, t.payDist = grid(cfg.Districts), grid(cfg.Districts), grid(cfg.Districts)
	t.ordered = grid(cfg.Items)
	return t
}

func (t *tpccTally) record(profile int, p map[string]any) {
	w, d := p["w"].(int), p["d"].(int)
	t.mu.Lock()
	defer t.mu.Unlock()
	switch profile {
	case tpcc.ProfileNewOrder:
		t.newOrders[w][d]++
		for k := 0; k < tpcc.OrderLines; k++ {
			item := p[fmt.Sprintf("i%d", k)].(int)
			t.ordered[w][item] += int64(p[fmt.Sprintf("q%d", k)].(int))
		}
	case tpcc.ProfilePayment:
		amt := int64(p["amount"].(int))
		t.payDist[w][d] += amt
		t.payWH[w] += amt
	case tpcc.ProfileDelivery:
		t.deliveries[w][d]++
	}
}

func (t *tpccTally) verify(state map[store.ObjectID]store.Value) (int, []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var bad []string
	checked := 0
	expect := func(id store.ObjectID, what string, got, want int64) {
		checked++
		if got != want {
			bad = append(bad, fmt.Sprintf("%s %s = %d, want %d", id, what, got, want))
		}
	}
	for w := 0; w < t.cfg.Warehouses; w++ {
		var ytdSum int64
		for d := 0; d < t.cfg.Districts; d++ {
			did := store.ID("district", w, d)
			dist, _ := state[did].(store.Tuple)
			if len(dist) != 2 {
				bad = append(bad, fmt.Sprintf("%s missing or malformed", did))
				continue
			}
			next, ytd := store.AsInt64(dist[0]), store.AsInt64(dist[1])
			ytdSum += ytd
			expect(did, "next-order-id - 1", next-1, t.newOrders[w][d])
			expect(did, "ytd", ytd, t.payDist[w][d])
			for oid := int64(1); oid < next; oid++ {
				oidID := store.ID("order", w, d, oid)
				checked++
				if _, ok := state[oidID]; !ok {
					bad = append(bad, fmt.Sprintf("%s missing", oidID))
				}
			}
			dlv := store.ID("dlv", w, d)
			expect(dlv, "cursor", intOf(state[dlv]), t.deliveries[w][d])
		}
		wid := store.ID("warehouse", w)
		expect(wid, "ytd", intOf(state[wid]), t.payWH[w])
		expect(wid, "sum of district ytd", ytdSum, t.payWH[w])
		for i := 0; i < t.cfg.Items; i++ {
			sid := store.ID("stock", w, i)
			expect(sid, "level", intOf(state[sid]), t.cfg.InitialStock-t.ordered[w][i])
		}
	}
	return checked, bad
}

// intOf reads an Int64 object, with -1 standing for a missing or
// mistyped one so that it never matches an expected balance by accident.
func intOf(v store.Value) int64 {
	x, ok := v.(store.Int64)
	if !ok {
		return -1
	}
	return int64(x)
}

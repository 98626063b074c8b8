package transport

import (
	"context"
	"log"
	"sync"

	"qracn/internal/quorum"
	"qracn/internal/wire"
)

// TCPNetwork is a Network over loopback TCP: every registered node gets its
// own TCPServer on 127.0.0.1, so each call crosses a real connection through
// the wire codec. SetDown closes a node's listener and connections, so
// clients see refused dials; SetDown(id, false) listens again on the same
// address.
type TCPNetwork struct {
	mu      sync.RWMutex
	nodes   map[quorum.NodeID]*tcpNode
	fault   FaultFunc
	clients []*TCPClient
	closed  bool

	client *TCPClient // carries the network's own Call
}

// tcpNode is one node's endpoint. Its server dispatches through handler, so
// Register swaps the handler without re-listening.
type tcpNode struct {
	addr    string
	handler Handler
	srv     *TCPServer // nil while down
}

// NewTCPNetwork creates an empty loopback network. It opens no listener
// until a node registers.
func NewTCPNetwork() *TCPNetwork {
	n := &TCPNetwork{nodes: make(map[quorum.NodeID]*tcpNode)}
	n.client = n.NewClient()
	return n
}

// NewClient returns a client with connections of its own to the network's
// nodes. It resolves addresses and applies the fault hook through n, and
// the network's Close closes it.
func (n *TCPNetwork) NewClient() *TCPClient {
	c := NewTCPClient(nil, false)
	c.net = n
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		c.Close()
	} else {
		n.clients = append(n.clients, c)
	}
	return c
}

// Register installs node id's handler. The first registration binds the
// node's listener on an ephemeral loopback port; later ones swap the
// handler behind the running listener.
func (n *TCPNetwork) Register(id quorum.NodeID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.nodes[id]; ok {
		nd.handler = h
		return
	}
	if n.closed {
		return
	}
	nd := &tcpNode{addr: "127.0.0.1:0", handler: h}
	n.nodes[id] = nd
	n.listen(id, nd)
}

// listen starts node id's server on nd.addr, fixing the address on first
// use. A node whose listener cannot bind stays down. Callers hold n.mu.
func (n *TCPNetwork) listen(id quorum.NodeID, nd *tcpNode) {
	srv := NewTCPServer(func(ctx context.Context, req *wire.Request) *wire.Response {
		n.mu.RLock()
		h := nd.handler
		n.mu.RUnlock()
		return h(ctx, req)
	}, false)
	addr, err := srv.Listen(nd.addr)
	if err != nil {
		log.Printf("transport: node %d stays down: %v", id, err)
		return
	}
	nd.addr, nd.srv = addr, srv
}

// SetDown closes a node's listener and connections, waiting for its
// in-flight handlers (true), or listens again on its address (false).
func (n *TCPNetwork) SetDown(id quorum.NodeID, down bool) {
	n.mu.Lock()
	nd, ok := n.nodes[id]
	if !ok || n.closed || down == (nd.srv == nil) {
		n.mu.Unlock()
		return
	}
	if !down {
		n.listen(id, nd)
		n.mu.Unlock()
		return
	}
	srv := nd.srv
	nd.srv = nil
	n.mu.Unlock()
	srv.Close()
}

// SetFault installs (or, with nil, removes) a fault hook consulted before
// every call of every client the network made.
func (n *TCPNetwork) SetFault(f FaultFunc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fault = f
}

func (n *TCPNetwork) faultHook() FaultFunc {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.fault
}

func (n *TCPNetwork) addr(id quorum.NodeID) (string, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	nd, ok := n.nodes[id]
	if !ok {
		return "", false
	}
	return nd.addr, true
}

// Alive reports whether the node is registered and listening.
func (n *TCPNetwork) Alive(id quorum.NodeID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	nd, ok := n.nodes[id]
	return ok && nd.srv != nil
}

// Call implements Client through the network's own connections.
func (n *TCPNetwork) Call(ctx context.Context, to quorum.NodeID, req *wire.Request) (*wire.Response, error) {
	return n.client.Call(ctx, to, req)
}

// Close closes every client the network made and every node's server,
// waiting for in-flight handlers.
func (n *TCPNetwork) Close() {
	n.mu.Lock()
	n.closed = true
	clients := n.clients
	n.clients = nil
	var srvs []*TCPServer
	for _, nd := range n.nodes {
		if nd.srv != nil {
			srvs = append(srvs, nd.srv)
			nd.srv = nil
		}
	}
	n.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	for _, s := range srvs {
		s.Close()
	}
}

var _ Network = (*TCPNetwork)(nil)

package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/client"
)

// External is the node name of peers that dial without going through the
// network (or dial addresses it has never seen).
const External = "ext"

// ClientNode is the node name of stack clients (producers, consumers,
// archivers). Brokers are named by BrokerName.
const ClientNode = "client"

// ObserverNode is the node name of the invariant monitors' dedicated
// client. Scenarios fault ClientNode links to stress the data plane; the
// observation plane stays clean so a corrupted measurement can never
// masquerade as a broken invariant.
const ObserverNode = "observer"

// BrokerName renders the node name of a broker id.
func BrokerName(id int32) string { return fmt.Sprintf("broker-%d", id) }

// Network is a fault-injectable transport: it hands out listen and dial
// hooks that register every address and wrap every connection, and exposes
// controls to sever links, partition node groups and inject per-frame
// faults. All methods are safe for concurrent use.
type Network struct {
	seed int64

	mu       sync.Mutex
	owners   map[string]string // listen addr -> node name
	severed  map[link]bool
	isolated map[string]bool
	faults   map[link]Faults
	rngs     map[link]*rand.Rand
	conns    map[pair]map[*faultConn]struct{}
}

// NewNetwork creates a network whose fault schedule derives from seed.
func NewNetwork(seed int64) *Network {
	return &Network{
		seed:     seed,
		owners:   make(map[string]string),
		severed:  make(map[link]bool),
		isolated: make(map[string]bool),
		faults:   make(map[link]Faults),
		rngs:     make(map[link]*rand.Rand),
		conns:    make(map[pair]map[*faultConn]struct{}),
	}
}

// Listen returns a listen hook that binds a real TCP listener and registers
// its address as belonging to node. Matches broker.Config.Listen.
func (n *Network) Listen(node string) func(host string, port int32) (net.Listener, error) {
	return func(host string, port int32) (net.Listener, error) {
		ln, err := net.Listen("tcp", fmt.Sprintf("%s:%d", host, port))
		if err != nil {
			return nil, err
		}
		n.mu.Lock()
		n.owners[ln.Addr().String()] = node
		n.mu.Unlock()
		return ln, nil
	}
}

// Dialer returns a dial hook for node. Dials resolve the target node from
// the address registry; the resulting connection is wrapped so both
// directions of its frames cross the link's fault rules.
func (n *Network) Dialer(node string) client.Dialer {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		to := n.ownerOf(addr)
		if n.dialBlocked(node, to) {
			return nil, fmt.Errorf("chaos: link %s->%s severed", node, to)
		}
		nc, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		fc := newFaultConn(n, nc, node, to)
		n.register(fc)
		// A sever that raced the dial must still cut this connection.
		if n.dialBlocked(node, to) {
			fc.Close()
			return nil, fmt.Errorf("chaos: link %s->%s severed", node, to)
		}
		return fc, nil
	}
}

// BrokerListen / BrokerDial / ClientDial adapt the node-name API to the
// id-based hook surface core.Config expects (core.FaultNetwork).

// BrokerListen returns the listen hook for a broker id.
func (n *Network) BrokerListen(id int32) func(host string, port int32) (net.Listener, error) {
	return n.Listen(BrokerName(id))
}

// BrokerDial returns the dial hook for a broker id's outbound connections.
func (n *Network) BrokerDial(id int32) client.Dialer { return n.Dialer(BrokerName(id)) }

// ClientDial returns the dial hook for stack clients.
func (n *Network) ClientDial() client.Dialer { return n.Dialer(ClientNode) }

// ownerOf resolves an address to its registered node, or External.
func (n *Network) ownerOf(addr string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if node, ok := n.owners[addr]; ok {
		return node
	}
	return External
}

// dialBlocked reports whether new connections from->to are currently
// forbidden (directional sever or either endpoint isolated).
func (n *Network) dialBlocked(from, to string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.severed[link{from: from, to: to}] || n.isolated[from] || n.isolated[to]
}

// register tracks a live connection under its node pair.
func (n *Network) register(c *faultConn) {
	p := pairOf(c.out.from, c.out.to)
	n.mu.Lock()
	defer n.mu.Unlock()
	set, ok := n.conns[p]
	if !ok {
		set = make(map[*faultConn]struct{})
		n.conns[p] = set
	}
	set[c] = struct{}{}
}

// unregister forgets a closed connection.
func (n *Network) unregister(c *faultConn) {
	p := pairOf(c.out.from, c.out.to)
	n.mu.Lock()
	defer n.mu.Unlock()
	if set, ok := n.conns[p]; ok {
		delete(set, c)
		if len(set) == 0 {
			delete(n.conns, p)
		}
	}
}

// faultsFor returns the active fault mix for a directional link.
func (n *Network) faultsFor(l link) Faults {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.faults[l]
}

// draw runs one per-frame fault decision on the link's deterministic PRNG.
// It returns the action to apply to this frame.
func (n *Network) draw(l link, f Faults) frameAction {
	n.mu.Lock()
	rng, ok := n.rngs[l]
	if !ok {
		rng = newLinkRand(n.seed, l)
		n.rngs[l] = rng
	}
	// One uniform draw per configured fault class, in a fixed order, so a
	// frame sequence maps to a stable PRNG consumption pattern.
	var act frameAction
	if f.DropRate > 0 && rng.Float64() < f.DropRate {
		act.drop = true
	}
	if f.DuplicateRate > 0 && rng.Float64() < f.DuplicateRate {
		act.duplicate = true
	}
	if f.CorruptRate > 0 && rng.Float64() < f.CorruptRate {
		act.corrupt = true
		act.corruptPos = rng.Int()
	}
	n.mu.Unlock()
	return act
}

// frameAction is one frame's drawn fault outcome.
type frameAction struct {
	drop       bool
	duplicate  bool
	corrupt    bool
	corruptPos int
}

// SetLinkFaults installs per-frame faults on the directional link from->to,
// replacing any previous mix. A zero Faults clears the link.
func (n *Network) SetLinkFaults(from, to string, f Faults) {
	l := link{from: from, to: to}
	n.mu.Lock()
	if f.active() {
		n.faults[l] = f
	} else {
		delete(n.faults, l)
	}
	n.mu.Unlock()
}

// Sever cuts the from->to direction: new dials from->to fail, and live
// connections between the pair are reset (a TCP session dies if either
// direction of its path is cut; only re-establishment is asymmetric).
func (n *Network) Sever(from, to string) {
	n.mu.Lock()
	n.severed[link{from: from, to: to}] = true
	victims := n.takeConnsLocked(pairOf(from, to))
	n.mu.Unlock()
	closeAll(victims)
}

// Unsever restores the from->to direction.
func (n *Network) Unsever(from, to string) {
	n.mu.Lock()
	delete(n.severed, link{from: from, to: to})
	n.mu.Unlock()
}

// PartitionOneWay cuts only the from-group -> to-group direction: the
// asymmetric partition where one side can open connections and the other
// cannot.
func (n *Network) PartitionOneWay(fromGroup, toGroup []string) {
	for _, a := range fromGroup {
		for _, b := range toGroup {
			n.Sever(a, b)
		}
	}
}

// Isolate cuts a node off from everyone (brokers and clients alike) until
// HealNode. Live connections touching the node are reset.
func (n *Network) Isolate(node string) {
	n.mu.Lock()
	n.isolated[node] = true
	var victims []*faultConn
	for p, set := range n.conns {
		if p.a == node || p.b == node {
			for c := range set {
				victims = append(victims, c)
			}
			delete(n.conns, p)
		}
	}
	n.mu.Unlock()
	closeAll(victims)
}

// HealNode reconnects an isolated node and clears severs involving it.
func (n *Network) HealNode(node string) {
	n.mu.Lock()
	delete(n.isolated, node)
	for l := range n.severed {
		if l.from == node || l.to == node {
			delete(n.severed, l)
		}
	}
	n.mu.Unlock()
}

// Heal clears every sever, isolation and per-frame fault. Live connections
// are left alone; broken ones re-dial through the now-clean links.
func (n *Network) Heal() {
	n.mu.Lock()
	n.severed = make(map[link]bool)
	n.isolated = make(map[string]bool)
	n.faults = make(map[link]Faults)
	n.mu.Unlock()
}

// IsolateBroker cuts a broker off from every peer and client.
func (n *Network) IsolateBroker(id int32) { n.Isolate(BrokerName(id)) }

// HealBroker restores a broker's links.
func (n *Network) HealBroker(id int32) { n.HealNode(BrokerName(id)) }

// takeConnsLocked removes and returns the pair's live connections.
func (n *Network) takeConnsLocked(p pair) []*faultConn {
	set, ok := n.conns[p]
	if !ok {
		return nil
	}
	delete(n.conns, p)
	out := make([]*faultConn, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	return out
}

func closeAll(conns []*faultConn) {
	for _, c := range conns {
		c.Close()
	}
}

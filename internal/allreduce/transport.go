package allreduce

import (
	"fmt"
	"sync"
	"time"
)

// Transport wires the n ranks of a ring together: it hands every rank an
// Endpoint holding that rank's pair of neighbor links (send side toward the
// successor, receive side from the predecessor). The transport owns the
// links' lifetime; Close releases them.
//
// Two implementations exist:
//
//   - ChanTransport: the in-process reference — links are FIFO Go channels,
//     every rank's endpoint lives in one address space. This is the
//     transport behind NewRing and the one every golden test pins.
//   - TCPTransport: one rank per OS process over real sockets, with
//     length-prefixed framing and adaptive send-side batching (tcp.go).
//
// The ring arithmetic (chunking, summation order) lives entirely in
// Ring.ReduceWith and never depends on the transport, so switching
// transports can change wall-clock behavior and failure modes but never
// the reduced values: a TCP ring is bitwise-identical to a channel ring.
type Transport interface {
	// Workers returns the ring size n.
	Workers() int
	// Endpoint returns rank's attachment to the ring, or nil when that rank
	// is not local to this transport instance (a TCPTransport holds exactly
	// one local rank; a ChanTransport holds all of them).
	Endpoint(rank int) *Endpoint
	// Close tears the links down. Blocked and future endpoint operations
	// fail promptly after Close.
	Close() error
}

// PeerTransport extends Transport with direct links between arbitrary rank
// pairs — what non-neighbor exchange schedules (halving-doubling's
// distance-2^i rounds, the fold-in pre/post step) run over. Peer links are
// separate from the ring links: creating or using one never perturbs ring
// traffic, which is what keeps the ring goldens byte-identical whether or
// not a transport grows the extension.
type PeerTransport interface {
	Transport
	// Peer returns rank's endpoint on a dedicated bidirectional link to
	// peer, creating the link on first use. The returned endpoint sends
	// toward peer and receives from peer; each (rank, peer) ordered pair
	// yields one stable endpoint, safe for a single goroutine like the ring
	// endpoints. Errors when either rank is out of range, rank == peer, or
	// rank is not local to this transport instance.
	Peer(rank, peer int) (*Endpoint, error)
}

// Endpoint is one rank's attachment to one link: a send queue toward the
// remote side and a receive queue from it. It is the only link type in the
// package. A channel link hands its queues straight to the remote rank's
// endpoint; a TCP link (tcp.go) puts a writer and a reader goroutine
// behind the same two queues. Buffer ownership follows message flow: Send
// transfers ownership of msg to the link, and Recv transfers ownership of
// the returned buffer to the caller — the contract the circulating-buffer
// scheme is built on, which keeps steady-state collectives
// allocation-free. An endpoint is driven from its rank's single goroutine.
type Endpoint struct {
	out chan<- []float64
	in  <-chan []float64
	// done closes on the link's first fatal error, which fault then holds.
	// Nil for channel links: they cannot break, and a nil channel never
	// fires.
	done  <-chan struct{}
	fault *linkFault
	// Hop deadline timers, reused across guarded hops: a fresh runtime
	// timer per hop is measurable steady-state GC pressure.
	sendTimer, recvTimer *time.Timer
}

// linkFault is a link's sticky first fatal error: fail records it and
// closes done, which releases every hop blocked on the link.
type linkFault struct {
	once sync.Once
	done chan struct{}
	err  error // set before done closes
}

func newLinkFault() *linkFault { return &linkFault{done: make(chan struct{})} }

func (f *linkFault) fail(err error) {
	f.once.Do(func() {
		f.err = err
		close(f.done)
	})
}

// deadline arms *tp with the policy's first hop deadline and returns its
// channel, or nil (never fires) under the zero policy. Go 1.23+ timer
// semantics (Reset flushes a stale fire) make the bare Reset race-free for
// a single-goroutine owner.
func deadline(tp **time.Timer, p RetryPolicy) <-chan time.Time {
	if p.HopTimeout <= 0 {
		return nil
	}
	if *tp == nil {
		*tp = time.NewTimer(p.HopTimeout)
	} else {
		(*tp).Reset(p.HopTimeout)
	}
	return (*tp).C
}

// Send hands msg to the link. The zero policy waits as long as it takes;
// a guarded one bounds the wait: each attempt waits one deadline, the
// deadline grows by Backoff per retry, and exhaustion returns
// ErrHopTimeout. A broken link fails with its sticky error, unless the
// queue still has room: done may stem from the read side seeing a
// finished peer's EOF while the writer still serves the queue, and the
// remote rank may need this message.
func (e *Endpoint) Send(msg []float64, p RetryPolicy) error {
	timeout := deadline(&e.sendTimer, p)
	if timeout != nil {
		defer e.sendTimer.Stop()
	}
	d := p.HopTimeout
	for attempt := 0; ; attempt++ {
		select {
		case e.out <- msg:
			return nil
		case <-e.done:
			select {
			case e.out <- msg:
				return nil
			default:
				return e.fault.err
			}
		case <-timeout:
			if attempt >= p.Retries {
				return ErrHopTimeout
			}
			d = nextDeadline(d, p)
			e.sendTimer.Reset(d)
		}
	}
}

// Recv returns the next message from the link under the same policy as
// Send. A broken link still yields the messages that arrived before the
// failure: a reader queues every delivered message before it can fail, so
// the final queue check cannot miss data sent ahead of a finished peer's
// EOF.
func (e *Endpoint) Recv(p RetryPolicy) ([]float64, error) {
	timeout := deadline(&e.recvTimer, p)
	if timeout != nil {
		defer e.recvTimer.Stop()
	}
	d := p.HopTimeout
	for attempt := 0; ; attempt++ {
		select {
		case msg := <-e.in:
			return msg, nil
		case <-e.done:
			select {
			case msg := <-e.in:
				return msg, nil
			default:
				return nil, e.fault.err
			}
		case <-timeout:
			if attempt >= p.Retries {
				return nil, ErrHopTimeout
			}
			d = nextDeadline(d, p)
			e.recvTimer.Reset(d)
		}
	}
}

// ChanTransport is the in-process transport: n buffered FIFO channels, one
// per rank, connecting each rank's send side to its successor's receive
// side. It is the transport NewRing builds and the reference every other
// transport must match bitwise.
type ChanTransport struct {
	n     int
	depth int
	links []chan []float64
	eps   []Endpoint

	// Peer links are built lazily under peersMu: most reduces are plain
	// rings and should not pay for an n² mesh. Each ordered (from, to) pair
	// has one directed channel; an endpoint pairs the two directions.
	peersMu   sync.Mutex
	peerLinks map[chanPeerKey]chan []float64
	peerEps   map[chanPeerKey]*Endpoint
}

// chanPeerKey identifies one directed peer channel (and, keyed by the
// owning side, one cached peer endpoint).
type chanPeerKey struct{ from, to int }

// NewChanTransport returns an in-process transport for n ranks whose links
// buffer depth in-flight messages (depth < 1 is raised to 1; deeper buffers
// let fast ranks run further ahead without changing results).
func NewChanTransport(n, depth int) (*ChanTransport, error) {
	if n < 1 {
		return nil, errRingSize(n)
	}
	if depth < 1 {
		depth = 1
	}
	t := &ChanTransport{n: n, depth: depth, links: make([]chan []float64, n), eps: make([]Endpoint, n)}
	for i := range t.links {
		t.links[i] = make(chan []float64, depth)
	}
	for i := range t.eps {
		t.eps[i] = Endpoint{out: t.links[i], in: t.links[(i-1+n)%n]}
	}
	return t, nil
}

// Workers returns the ring size.
func (t *ChanTransport) Workers() int { return t.n }

// Endpoint returns rank's endpoint (every rank is local to a ChanTransport).
func (t *ChanTransport) Endpoint(rank int) *Endpoint {
	if rank < 0 || rank >= t.n {
		return nil
	}
	return &t.eps[rank]
}

// Peer returns rank's endpoint on the direct link to peer, creating the
// two directed channels on first use. Endpoints are cached per ordered
// pair so the guarded ops' per-direction timers stay single-owner.
func (t *ChanTransport) Peer(rank, peer int) (*Endpoint, error) {
	if rank < 0 || rank >= t.n || peer < 0 || peer >= t.n || rank == peer {
		return nil, fmt.Errorf("allreduce: no peer link %d→%d in a %d-rank transport", rank, peer, t.n)
	}
	t.peersMu.Lock()
	defer t.peersMu.Unlock()
	key := chanPeerKey{rank, peer}
	if ep := t.peerEps[key]; ep != nil {
		return ep, nil
	}
	if t.peerLinks == nil {
		t.peerLinks = make(map[chanPeerKey]chan []float64)
		t.peerEps = make(map[chanPeerKey]*Endpoint)
	}
	link := func(from, to int) chan []float64 {
		k := chanPeerKey{from, to}
		ch := t.peerLinks[k]
		if ch == nil {
			ch = make(chan []float64, t.depth)
			t.peerLinks[k] = ch
		}
		return ch
	}
	ep := &Endpoint{out: link(rank, peer), in: link(peer, rank)}
	t.peerEps[key] = ep
	return ep, nil
}

// Close is a no-op: channel links hold no external resources, and leaving
// them open keeps in-flight reduces on other goroutines well-defined.
func (t *ChanTransport) Close() error { return nil }

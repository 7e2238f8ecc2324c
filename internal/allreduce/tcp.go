package allreduce

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// TCP wire protocol. Every connection starts with one fixed-size hello
// frame identifying the dialing rank; after that the stream is a sequence
// of length-prefixed messages:
//
//	hello:   magic "CKR1" | uint32 rank | uint32 workers      (12 bytes)
//	message: uint32 count | count × uint64 float64 bits        (4 + 8·count)
//
// All integers are little-endian; floats travel as their IEEE-754 bit
// patterns, so a value is reproduced exactly — transport can never perturb
// arithmetic. Batching coalesces several messages into one write/syscall;
// it is purely a framing concern: the receiver decodes messages one at a
// time off the buffered stream, so grouping on the wire changes syscall
// counts, never content or order.
//
// Peer links (the PeerTransport extension carrying halving-doubling's
// non-neighbor exchanges) reuse the identical frame layout on dedicated
// sockets; their hello leads with tcpPeerMagic instead, so one listener
// serves both ring bring-up and lazy peer dials.
//
// Every link, ring or peer, is one tcpLink: an Endpoint whose queues one
// writer and one reader goroutine serve. The ring link lingers to batch
// and its failure fails the whole transport; a peer link flushes at once
// and fails alone. The reader trusts nothing it is sent: the prefix is
// capped, buffers grow only as payload arrives, and the collectives check
// every message's length before using it.
const tcpMagic = "CKR1"

// tcpPeerMagic opens a peer-link connection: same 12-byte hello frame,
// rank field naming the dialing rank the link connects to.
const tcpPeerMagic = "CKP1"

// tcpMaxMsgLen caps a single message's element count (64 MiB of payload),
// guarding the reader against corrupt or hostile length prefixes.
const tcpMaxMsgLen = 8 << 20

// tcpAutoMaxDelay caps the adaptive batch delay; tcpAutoStep is its
// additive increment. 200µs sits just above the swiftpaxos sweet spot
// (150µs) and well below any per-hop retry deadline.
const (
	tcpAutoMaxDelay = 200 * time.Microsecond
	tcpAutoStep     = 25 * time.Microsecond
	// tcpCoalesceWindow is the arrival gap under which two consecutive
	// batches would have fit into one: gaps shorter than this push the
	// adaptive delay up, longer idle gaps decay it.
	tcpCoalesceWindow = 100 * time.Microsecond
	tcpIdleWindow     = time.Millisecond
)

// BatchAuto selects adaptive send-side batching: the transport tunes its
// coalescing delay from observed message arrival gaps, between 0 and
// tcpAutoMaxDelay.
const BatchAuto time.Duration = -1

// TCPConfig configures one rank's attachment to a ring spanning OS
// processes over TCP.
type TCPConfig struct {
	// Rank is this process's ring position; Peers lists every rank's
	// address in rank order (len(Peers) is the ring size). Peers[Rank] is
	// the address this rank listens on, unless Listener is set.
	Rank  int
	Peers []string
	// Listener, when non-nil, is an already-bound listener to accept the
	// predecessor's connection on (its address supersedes Peers[Rank]).
	// The transport takes ownership and closes it.
	Listener net.Listener
	// BatchDelay is the send-side coalescing delay: 0 sends immediately,
	// a positive value sleeps that long after the first queued message so
	// ring hops accumulate into one write, and BatchAuto (-1) tunes the
	// delay adaptively from arrival gaps. Framing-only: results are
	// bitwise-identical at every setting.
	BatchDelay time.Duration
	// DialTimeout bounds connection setup — dialing the successor and
	// accepting the predecessor (default 10s). Workers of a multi-process
	// run start at different times; dialing retries until the deadline.
	DialTimeout time.Duration
	// Depth is the send/receive queue depth in messages (default 16).
	Depth int
}

func (c *TCPConfig) withDefaults() TCPConfig {
	out := *c
	if out.DialTimeout <= 0 {
		out.DialTimeout = 10 * time.Second
	}
	if out.Depth < 1 {
		out.Depth = 16
	}
	return out
}

// TCPStats counts one transport's wire activity. Batches is the number of
// flushes (≈ send syscalls); Messages the ring hops carried, so
// Messages/Batches is the achieved coalescing factor.
type TCPStats struct {
	BytesSent, BytesReceived   int64
	MessagesSent, MessagesRecv int64
	Batches                    int64
}

// MsgsPerBatch returns the mean number of ring hops coalesced per network
// write (1 = no batching benefit).
func (s TCPStats) MsgsPerBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.MessagesSent) / float64(s.Batches)
}

// TCPTransport connects one local rank into a ring of OS processes over
// real sockets: an outgoing connection to the successor and an incoming
// one from the predecessor form the ring link, and halving-doubling's
// peer links are dialed lazily. Endpoint returns non-nil only for the
// local rank. Hop deadlines (RetryPolicy) bound waits on the links'
// queues, so a stalled peer surfaces as ErrHopTimeout exactly like a
// stalled channel neighbor, while a broken socket fails pending and future
// hops immediately with the underlying error — ReduceWith maps both onto
// *RingFault blame.
type TCPTransport struct {
	rank, n int
	cfg     TCPConfig

	ln    net.Listener
	ring  *tcpLink   // send side to the successor, receive side from the predecessor
	fault *linkFault // the ring link's: its failure fails the whole transport
	free  bufPool    // message buffers recycled from writers to readers
	wg    sync.WaitGroup
	once  sync.Once

	// Peer links, built lazily on first Peer() call (lower rank dials,
	// higher rank accepts on the ring listener). A broken peer link fails
	// only its own hops, never the ring. closing stops new links from
	// starting once Close has begun.
	peersMu sync.Mutex
	peers   map[int]*tcpLink
	closing bool

	bytesSent, bytesRecv atomic.Int64
	msgsSent, msgsRecv   atomic.Int64
	batches              atomic.Int64
}

// NewTCPTransport sets this rank's ring connections up and starts its
// reader and writer. It blocks until both neighbor links are established
// or the dial timeout lapses. Every rank of the ring must run
// NewTCPTransport with the same Peers list.
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) {
	n := len(cfg.Peers)
	if n < 1 {
		return nil, errRingSize(n)
	}
	if cfg.Rank < 0 || cfg.Rank >= n {
		return nil, fmt.Errorf("allreduce: tcp rank %d of %d", cfg.Rank, n)
	}
	cfg = cfg.withDefaults()
	t := &TCPTransport{
		rank:  cfg.Rank,
		n:     n,
		cfg:   cfg,
		fault: newLinkFault(),
		free:  make(bufPool, 2*cfg.Depth), // a full send and receive queue's worth
	}
	succ, pred := (t.rank+1)%n, (t.rank-1+n)%n
	t.ring = t.newLink(t.fault, cfg.BatchDelay, 256<<10, fmt.Sprint(succ), fmt.Sprint(pred))
	if n == 1 {
		t.ln = cfg.Listener // still owned: Close must release it
		return t, nil       // a single-rank ring exchanges nothing
	}
	if err := t.connect(); err != nil {
		t.Close()
		return nil, err
	}
	t.ring.start()
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// connect establishes the ring link's two sockets: listen for the
// predecessor, dial the successor (retrying while it boots), and exchange
// hellos.
func (t *TCPTransport) connect() error {
	deadline := time.Now().Add(t.cfg.DialTimeout)
	ln := t.cfg.Listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", t.cfg.Peers[t.rank]); err != nil {
			return fmt.Errorf("allreduce: rank %d listen %s: %w", t.rank, t.cfg.Peers[t.rank], err)
		}
	}
	t.ln = ln

	succ := (t.rank + 1) % t.n
	pred := (t.rank - 1 + t.n) % t.n

	// Dial the successor in the background while accepting the
	// predecessor; with both sides of every process doing this, ring
	// bring-up needs no global ordering.
	dialCh := make(chan error, 1)
	go func() {
		conn, err := t.dial(succ, tcpMagic)
		t.ring.w = conn
		dialCh <- err
	}()

	var acceptErr error
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		_ = d.SetDeadline(deadline)
	}
	for t.ring.r == nil {
		conn, err := ln.Accept()
		if err != nil {
			acceptErr = fmt.Errorf("allreduce: rank %d accept predecessor %d: %w", t.rank, pred, err)
			break
		}
		magic, from, err := readHello(conn, t.n, t.rank)
		switch {
		case err == nil && magic == tcpMagic && from == pred:
			t.ring.r = conn
		case err == nil && magic == tcpPeerMagic:
			// An eager peer dialed before our ring bring-up finished.
			t.attach(t.peerLink(from), conn)
		default:
			// A stray or malformed connection (port scan, stale dial from a
			// previous run): drop it and keep accepting.
			conn.Close()
		}
	}
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		_ = d.SetDeadline(time.Time{}) // acceptLoop serves peer dials with no deadline
	}

	if err := <-dialCh; acceptErr == nil {
		acceptErr = err
	}
	return acceptErr
}

// dial connects to rank to's listener with the given hello, retrying
// while it boots until the dial timeout lapses or the transport fails.
func (t *TCPTransport) dial(to int, magic string) (net.Conn, error) {
	deadline := time.Now().Add(t.cfg.DialTimeout)
	var lastErr error
	for time.Now().Before(deadline) {
		select {
		case <-t.fault.done:
			return nil, t.fault.err
		default:
		}
		conn, err := net.DialTimeout("tcp", t.cfg.Peers[to], time.Until(deadline))
		if err == nil {
			if err = writeHello(conn, magic, t.rank, t.n); err == nil {
				return conn, nil
			}
			conn.Close()
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	return nil, fmt.Errorf("allreduce: rank %d dial rank %d (%s): %w", t.rank, to, t.cfg.Peers[to], lastErr)
}

// acceptLoop keeps serving the ring listener after bring-up: the only
// legitimate late arrivals are peer-link dials from lower ranks. It exits
// when Close tears the listener down.
func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		if magic, from, err := readHello(conn, t.n, t.rank); err == nil && magic == tcpPeerMagic {
			t.attach(t.peerLink(from), conn)
		} else {
			conn.Close()
		}
	}
}

// writeHello sends the 12-byte connection preamble.
func writeHello(conn net.Conn, magic string, rank, n int) error {
	var buf [12]byte
	copy(buf[:4], magic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(rank))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(n))
	_, err := conn.Write(buf[:])
	return err
}

// readHello reads a connection preamble (bounded by a 5s deadline) and
// validates it with parseHello.
func readHello(conn net.Conn, n, self int) (magic string, from int, err error) {
	var buf [12]byte
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer conn.SetReadDeadline(time.Time{})
	if _, err = io.ReadFull(conn, buf[:]); err != nil {
		return "", 0, err
	}
	return parseHello(buf[:], n, self)
}

// parseHello validates a preamble received by rank self of an n-rank ring:
// a known magic, the same ring size, and a dialing rank that is another
// member of the ring.
func parseHello(buf []byte, n, self int) (magic string, from int, err error) {
	if len(buf) < 12 {
		return "", 0, fmt.Errorf("allreduce: short hello of %d bytes", len(buf))
	}
	magic = string(buf[:4])
	if magic != tcpMagic && magic != tcpPeerMagic {
		return "", 0, fmt.Errorf("allreduce: bad hello magic %q", buf[:4])
	}
	from64 := int64(binary.LittleEndian.Uint32(buf[4:8]))
	if workers := binary.LittleEndian.Uint32(buf[8:12]); int64(workers) != int64(n) {
		return "", 0, fmt.Errorf("allreduce: hello from a %d-rank ring, want %d", workers, n)
	}
	if from64 >= int64(n) || from64 == int64(self) {
		return "", 0, fmt.Errorf("allreduce: hello from rank %d of %d (local rank %d)", from64, n, self)
	}
	return magic, int(from64), nil
}

// Workers returns the ring size.
func (t *TCPTransport) Workers() int { return t.n }

// Endpoint returns the local rank's ring endpoint and nil for every other
// rank: remote ranks live in other processes.
func (t *TCPTransport) Endpoint(rank int) *Endpoint {
	if rank != t.rank {
		return nil
	}
	return &t.ring.ep
}

// Rank returns the local rank.
func (t *TCPTransport) Rank() int { return t.rank }

// Stats snapshots the transport's wire counters.
func (t *TCPTransport) Stats() TCPStats {
	return TCPStats{
		BytesSent:     t.bytesSent.Load(),
		BytesReceived: t.bytesRecv.Load(),
		MessagesSent:  t.msgsSent.Load(),
		MessagesRecv:  t.msgsRecv.Load(),
		Batches:       t.batches.Load(),
	}
}

// Close tears the connections down. Every running writer first flushes
// the messages already handed to Send (bounded at 2s in total), so a rank
// that finishes its run and closes does not strand its successor's final
// hops or the result a folded hd rank is owed; only then do in-flight and
// future hops fail promptly with ErrTransportClosed (or the earlier fatal
// error).
func (t *TCPTransport) Close() error {
	t.once.Do(func() {
		t.peersMu.Lock()
		t.closing = true
		links := []*tcpLink{t.ring}
		for _, l := range t.peers {
			links = append(links, l)
		}
		t.peersMu.Unlock()
		drained := time.Now().Add(2 * time.Second)
		for _, l := range links {
			if l.running() {
				close(l.quit)
			}
		}
		for _, l := range links {
			if l.running() {
				select {
				case <-l.wDone:
				case <-time.After(time.Until(drained)):
				}
			}
		}
		if t.ln != nil {
			t.ln.Close()
		}
		for _, l := range links {
			l.fault.fail(ErrTransportClosed)
			for _, c := range [2]net.Conn{l.w, l.r} {
				if c != nil {
					c.Close()
				}
			}
		}
		t.wg.Wait()
	})
	return nil
}

// ErrTransportClosed reports a hop attempted on a closed transport.
var ErrTransportClosed = errors.New("allreduce: transport closed")

// bufPool recycles message buffers from a transport's writers to its
// readers. Best-effort both ways: a full pool drops a buffer, an empty one
// yields nil.
type bufPool chan []float64

func (p bufPool) put(buf []float64) {
	select {
	case p <- buf:
	default:
	}
}

// get returns an empty recycled buffer with room for count elements, or
// nil.
func (p bufPool) get(count int) []float64 {
	select {
	case buf := <-p:
		if cap(buf) >= count {
			return buf[:0]
		}
	default:
	}
	return nil
}

// lingerControl tunes BatchAuto's send-side coalescing delay from observed
// message arrival gaps. The old ratchet (gap < window ⇒ delay += step, one
// halving per idle gap) had two failure modes this replaces:
//
//   - Over-linger under contention: on a busy host the queue drains in
//     bursts whose gaps stay under the coalesce window, so the delay
//     ratcheted to its 200µs max and every batch paid it — making adaptive
//     batching ~2× slower than plain tcp. Now the linger is additionally
//     capped at twice the smoothed arrival gap: sleeping longer than the
//     cadence at which messages actually arrive cannot coalesce more of
//     them, it only adds latency.
//   - Stale linger after a burst: one halving per idle arrival decays
//     200µs → 0 only after ~8 further batches, so the first hops of the
//     next training step paid the previous step's delay. An idle gap now
//     resets the linger (and the learned cadence) to zero outright.
type lingerControl struct {
	delay   time.Duration // current linger before a flush
	ewmaGap time.Duration // smoothed gap between batch-opening arrivals
	last    time.Time     // when the previous batch opened
}

// next returns the linger to apply for the batch opening at now; pending is
// the number of messages already queued behind it.
func (lc *lingerControl) next(now time.Time, pending int) time.Duration {
	var gap time.Duration
	if lc.last.IsZero() {
		gap = tcpIdleWindow + 1 // first batch ever: treat as idle
	} else {
		gap = now.Sub(lc.last)
	}
	lc.last = now
	switch {
	case gap > tcpIdleWindow:
		// Idle connection: back to zero linger so the first hops of a fresh
		// burst never pay a stale delay, and forget the stale cadence.
		lc.delay = 0
		lc.ewmaGap = 0
	case gap < tcpCoalesceWindow:
		// Back-to-back batches: grow the linger, bounded by both the
		// absolute cap and twice the observed arrival cadence.
		if lc.ewmaGap == 0 {
			lc.ewmaGap = gap
		} else {
			lc.ewmaGap = (3*lc.ewmaGap + gap) / 4
		}
		lc.delay += tcpAutoStep
		if lim := 2 * lc.ewmaGap; lc.delay > lim {
			lc.delay = lim
		}
		if lc.delay > tcpAutoMaxDelay {
			lc.delay = tcpAutoMaxDelay
		}
	default:
		lc.delay /= 2
	}
	if pending > 0 {
		// A batch is already formed in the queue — lingering buys nothing.
		return 0
	}
	return lc.delay
}

// tcpLink is one TCP link: an Endpoint whose send queue a writer
// goroutine drains onto a socket and whose receive queue a reader
// goroutine fills from one. The ring link writes to the successor's
// socket and reads the predecessor's; a peer link reads and writes one
// socket. The two roles differ only in linger (the ring link batches by
// BatchDelay, peer links carry latency-bound hd rounds and flush at once),
// buffer size, and failure scope (the ring link shares the transport's
// fault, a peer link has its own). Wire counters are transport-wide.
type tcpLink struct {
	t            *TCPTransport
	ep           Endpoint
	sendQ, recvQ chan []float64
	fault        *linkFault
	linger       time.Duration
	bufSize      int
	dst, src     string   // remote ends, for error messages
	w, r         net.Conn // written and read sockets, set before start

	ready chan struct{} // closed once the loops run
	quit  chan struct{} // graceful close: the writer drains, flushes, exits
	wDone chan struct{} // closed when the writer exits

	dialOnce sync.Once // peer links: the lower rank dials once
}

func (t *TCPTransport) newLink(fault *linkFault, linger time.Duration, bufSize int, dst, src string) *tcpLink {
	l := &tcpLink{
		t: t, fault: fault, linger: linger, bufSize: bufSize, dst: dst, src: src,
		sendQ: make(chan []float64, t.cfg.Depth),
		recvQ: make(chan []float64, t.cfg.Depth),
		ready: make(chan struct{}),
		quit:  make(chan struct{}),
		wDone: make(chan struct{}),
	}
	l.ep = Endpoint{out: l.sendQ, in: l.recvQ, done: fault.done, fault: fault}
	return l
}

// start runs the link's writer and reader on its sockets.
func (l *tcpLink) start() {
	l.t.wg.Add(2)
	go l.writeLoop()
	go l.readLoop()
	close(l.ready)
}

func (l *tcpLink) running() bool {
	select {
	case <-l.ready:
		return true
	default:
		return false
	}
}

// writeLoop drains the send queue onto the socket, coalescing bursts of
// hops into single buffered writes — the swiftpaxos batching recipe: take
// one message, optionally linger, then drain everything pending and flush
// once. With BatchAuto the linger follows lingerControl: bounded by the
// observed arrival cadence, reset to zero after idle gaps, and skipped
// entirely when messages are already queued. There is no done case: done
// may fire because the read side saw a finished peer close (EOF) while
// the remote side still needs our queued and future sends, so the writer
// serves the queue until graceful close (quit) or its own write error.
func (l *tcpLink) writeLoop() {
	defer l.t.wg.Done()
	defer close(l.wDone)
	w := bufio.NewWriterSize(l.w, l.bufSize)
	var frame []byte // per-writer scratch: grows to the largest frame once
	delay := l.linger
	var lc lingerControl
	for {
		select {
		case msg := <-l.sendQ:
			if l.linger < 0 {
				delay = lc.next(time.Now(), len(l.sendQ))
			}
			if delay > 0 {
				time.Sleep(delay)
			}
			if err := l.flush(w, msg, &frame); err != nil {
				l.fault.fail(fmt.Errorf("allreduce: rank %d send to %s: %w", l.t.rank, l.dst, err))
				return
			}
		case <-l.quit:
			// Graceful close: what is already queued still goes out. The
			// writer exits either way; a lost flush reaches the remote
			// side as EOF.
			select {
			case msg := <-l.sendQ:
				_ = l.flush(w, msg, &frame)
			default:
			}
			return
		}
	}
}

// flush writes msg and every message queued behind it as one batch, then
// flushes the batch onto the socket.
func (l *tcpLink) flush(w *bufio.Writer, msg []float64, frame *[]byte) error {
	t := l.t
	batch, bytes := int64(0), int64(0)
	for {
		n, err := writeFrame(w, msg, frame)
		t.free.put(msg)
		if err != nil {
			return err
		}
		batch++
		bytes += n
		select {
		case msg = <-l.sendQ:
			continue
		default:
		}
		break
	}
	if err := w.Flush(); err != nil {
		return err
	}
	t.batches.Add(1)
	t.msgsSent.Add(batch)
	t.bytesSent.Add(bytes)
	return nil
}

// readLoop decodes messages off the stream into the receive queue, reusing
// buffers the writers retired.
func (l *tcpLink) readLoop() {
	t := l.t
	defer t.wg.Done()
	r := bufio.NewReaderSize(l.r, l.bufSize)
	var rbuf []byte
	for {
		msg, err := readFrame(r, &rbuf, t.free)
		if err != nil {
			l.fault.fail(fmt.Errorf("allreduce: rank %d recv from %s: %w", t.rank, l.src, err))
			return
		}
		t.msgsRecv.Add(1)
		t.bytesRecv.Add(int64(4 + 8*len(msg)))
		select {
		case l.recvQ <- msg:
		case <-l.fault.done:
			return
		}
	}
}

// writeFrame encodes msg into *frame — per-writer scratch grown once to the
// largest frame seen, then reused forever — and hands it to the buffered
// writer in a single Write. One allocation amortized over a connection's
// lifetime, zero steady-state: the framing analogue of the circulating
// message buffers.
func writeFrame(w *bufio.Writer, msg []float64, frame *[]byte) (int64, error) {
	need := 4 + 8*len(msg)
	buf := *frame
	if cap(buf) < need {
		buf = make([]byte, need)
		*frame = buf
	}
	buf = buf[:need]
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(msg)))
	for i, v := range msg {
		binary.LittleEndian.PutUint64(buf[4+8*i:], math.Float64bits(v))
	}
	if _, err := w.Write(buf); err != nil {
		return 0, err
	}
	return int64(need), nil
}

// frameChunk bounds one read of a frame's payload. The reader's byte
// scratch never exceeds it, and a message buffer grows chunk by chunk as
// payload arrives rather than from the length prefix alone, so a corrupt
// or hostile prefix cannot make the reader allocate what the peer never
// sends.
const frameChunk = 64 << 10

// readFrame decodes one length-prefixed message off the stream into a
// buffer from pool; *rbuf is per-reader byte scratch. Once the scratch and
// the pool are warm, reads allocate nothing.
func readFrame(r *bufio.Reader, rbuf *[]byte, pool bufPool) ([]float64, error) {
	// The length prefix lands in the scratch buffer too: a stack [4]byte
	// would escape through the io.Reader interface and cost one heap
	// allocation per frame.
	buf := *rbuf
	if cap(buf) < 4 {
		buf = make([]byte, 64)
		*rbuf = buf
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	count := int(binary.LittleEndian.Uint32(buf[:4]))
	if count > tcpMaxMsgLen {
		return nil, fmt.Errorf("frame of %d elements", count)
	}
	msg := pool.get(count)
	for len(msg) < count {
		step := min(count-len(msg), frameChunk/8)
		if cap(buf) < 8*step {
			buf = make([]byte, 8*step)
			*rbuf = buf
		}
		b := buf[:8*step]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		at := len(msg)
		msg = slices.Grow(msg, step)[:at+step]
		for i := range msg[at:] {
			msg[at+i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return msg, nil
}

// Peer returns the local rank's endpoint on a dedicated socket to peer,
// establishing it on first use: the lower rank dials the higher rank's
// ring listener with a tcpPeerMagic hello, the higher rank's accept loop
// attaches the connection. Blocks until the link is up or the dial timeout
// lapses. Peer links carry halving-doubling's non-neighbor exchanges; a
// broken one fails its own hops only, never the ring link.
func (t *TCPTransport) Peer(rank, peer int) (*Endpoint, error) {
	if rank != t.rank {
		return nil, fmt.Errorf("allreduce: rank %d is not local to this transport (local rank %d)", rank, t.rank)
	}
	if peer < 0 || peer >= t.n || peer == rank {
		return nil, fmt.Errorf("allreduce: no peer link %d→%d in a %d-rank transport", rank, peer, t.n)
	}
	l := t.peerLink(peer)
	if rank < peer {
		l.dialOnce.Do(func() {
			go func() {
				conn, err := t.dial(peer, tcpPeerMagic)
				if err != nil {
					l.fault.fail(err)
					return
				}
				t.attach(l, conn)
			}()
		})
	}
	select {
	case <-l.ready:
		return &l.ep, nil
	case <-l.fault.done:
		return nil, l.fault.err
	case <-t.fault.done:
		return nil, t.fault.err
	case <-time.After(t.cfg.DialTimeout):
		return nil, fmt.Errorf("allreduce: rank %d: peer link to %d not up within %v", rank, peer, t.cfg.DialTimeout)
	}
}

// peerLink returns (creating if needed) the link to peer.
func (t *TCPTransport) peerLink(peer int) *tcpLink {
	t.peersMu.Lock()
	defer t.peersMu.Unlock()
	l := t.peers[peer]
	if l == nil {
		name := fmt.Sprintf("peer %d", peer)
		l = t.newLink(newLinkFault(), 0, 64<<10, name, name)
		if t.peers == nil {
			t.peers = make(map[int]*tcpLink)
		}
		t.peers[peer] = l
	}
	return l
}

// attach wires a connected socket into a peer link and starts its loops.
// A duplicate connection (possible only from protocol misuse) or one that
// arrives once Close has begun is dropped.
func (t *TCPTransport) attach(l *tcpLink, conn net.Conn) {
	t.peersMu.Lock()
	defer t.peersMu.Unlock()
	if t.closing || l.running() {
		conn.Close()
		return
	}
	l.w, l.r = conn, conn
	l.start()
}

// ReserveRingAddrs binds n loopback listeners on kernel-assigned ports and
// returns them with their addresses, so a set of in-process ranks (tests,
// benchmarks) can build a TCP ring without a port race: pass addrs as
// every rank's Peers and listeners[i] as rank i's Listener.
func ReserveRingAddrs(n int) (addrs []string, listeners []net.Listener, err error) {
	addrs = make([]string, n)
	listeners = make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return addrs, listeners, nil
}

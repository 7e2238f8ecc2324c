package allreduce

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"
)

// reduceNoPanic runs one ReduceWith on the calling goroutine and turns a
// panic into a test failure, so a hostile message fails the test instead
// of the whole test binary.
func reduceNoPanic(t *testing.T, ring *Ring, rank int, seg []float64, opts Options) (err error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("ReduceWith panicked: %v", p)
		}
	}()
	return ring.ReduceWith(rank, seg, opts)
}

// wantShortMessageFault checks that a reduce fed a 1-element message where
// a 4-element chunk was due failed cleanly, blaming the sender.
func wantShortMessageFault(t *testing.T, err error, sender int) {
	t.Helper()
	if err == nil {
		t.Fatal("reduce accepted a wrong-length message")
	}
	var fault *RingFault
	if !errors.As(err, &fault) || fault.Op != "recv" || fault.Suspect != sender {
		t.Fatalf("error %v: want a recv *RingFault suspecting rank %d", err, sender)
	}
}

// TestRingWrongLengthMessage: on a 2-rank ring, rank 1 answers rank 0's
// first hop with a 1-element message where a 4-element chunk is due. Rank
// 0's ReduceWith must return a fault, not index past the message. Over
// TCP, rank 1 is a raw socket that completes the ring hello and then sends
// the short frame.
func TestRingWrongLengthMessage(t *testing.T) {
	t.Parallel()
	const dim = 8 // two 4-element chunks
	t.Run("chan", func(t *testing.T) {
		t.Parallel()
		tr, err := NewChanTransport(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		ring, err := NewRingOver(tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Endpoint(1).Send([]float64{1}, RetryPolicy{}); err != nil {
			t.Fatal(err)
		}
		wantShortMessageFault(t, reduceNoPanic(t, ring, 0, make([]float64, dim), Options{}), 1)
	})
	t.Run("tcp", func(t *testing.T) {
		t.Parallel()
		addrs, lns, err := ReserveRingAddrs(2)
		if err != nil {
			t.Fatal(err)
		}
		defer lns[1].Close()
		type built struct {
			tr  *TCPTransport
			err error
		}
		ch := make(chan built, 1)
		go func() {
			tr, err := NewTCPTransport(TCPConfig{Rank: 0, Peers: addrs, Listener: lns[0], DialTimeout: 5 * time.Second})
			ch <- built{tr, err}
		}()
		// Rank 1 by hand: accept rank 0's dial (discarding whatever it
		// sends), then dial rank 0 as its predecessor.
		in, err := lns[1].Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		go io.Copy(io.Discard, in)
		out, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		var wire []byte
		wire = append(wire, "CKR1"...)
		wire = binary.LittleEndian.AppendUint32(wire, 1) // rank
		wire = binary.LittleEndian.AppendUint32(wire, 2) // workers
		wire = binary.LittleEndian.AppendUint32(wire, 1) // a 1-element frame
		wire = binary.LittleEndian.AppendUint64(wire, math.Float64bits(1))
		if _, err := out.Write(wire); err != nil {
			t.Fatal(err)
		}
		b := <-ch
		if b.err != nil {
			t.Fatal(b.err)
		}
		defer b.tr.Close()
		ring, err := NewRingOver(b.tr)
		if err != nil {
			t.Fatal(err)
		}
		wantShortMessageFault(t, reduceNoPanic(t, ring, 0, make([]float64, dim), Options{}), 1)
	})
}

// TestReadFrameScratchGrowsWithPayload: a length prefix alone must not
// size the reader's scratch. A frame that declares tcpMaxMsgLen elements
// and then ends leaves the scratch within the bytes received plus one
// chunk, whether it ends right after the prefix or mid-payload.
func TestReadFrameScratchGrowsWithPayload(t *testing.T) {
	for _, payload := range []int{0, 100, frameChunk + 8} {
		data := binary.LittleEndian.AppendUint32(nil, tcpMaxMsgLen)
		data = append(data, make([]byte, payload)...)
		var rbuf []byte
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(data)), &rbuf, nil); err == nil {
			t.Fatalf("payload %d: truncated frame decoded without error", payload)
		}
		if limit := len(data) + frameChunk; cap(rbuf) > limit {
			t.Fatalf("payload %d: scratch grew to %d bytes, want <= %d", payload, cap(rbuf), limit)
		}
	}
}

// FuzzReadFrame: for arbitrary bytes, every frame readFrame yields is the
// exact decoding of the wire bytes (prefix count, then that many float64
// bit patterns), decoding stops at the first error, and the scratch never
// exceeds the bytes received plus one chunk.
func FuzzReadFrame(f *testing.F) {
	frame := func(vals ...float64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(vals)))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(frame(1, -2.5, math.Inf(1)))
	f.Add(append(frame(), frame(math.NaN())...))
	f.Add(binary.LittleEndian.AppendUint32(nil, tcpMaxMsgLen))
	f.Add(binary.LittleEndian.AppendUint32(nil, tcpMaxMsgLen+1))
	f.Add([]byte{3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		pool := make(bufPool, 2)
		var rbuf []byte
		for off := 0; ; {
			msg, err := readFrame(r, &rbuf, pool)
			if limit := len(data) + frameChunk; cap(rbuf) > limit {
				t.Fatalf("scratch %d bytes after %d input bytes, want <= %d", cap(rbuf), len(data), limit)
			}
			if err != nil {
				return
			}
			if len(data)-off < 4 {
				t.Fatalf("frame decoded from %d bytes", len(data)-off)
			}
			count := int(binary.LittleEndian.Uint32(data[off:]))
			off += 4
			if len(msg) != count || count > tcpMaxMsgLen || len(data)-off < 8*count {
				t.Fatalf("decoded %d elements, prefix says %d with %d bytes left", len(msg), count, len(data)-off)
			}
			for i, v := range msg {
				if want := binary.LittleEndian.Uint64(data[off+8*i:]); math.Float64bits(v) != want {
					t.Fatalf("element %d: bits %#x, wire %#x", i, math.Float64bits(v), want)
				}
			}
			off += 8 * count
			pool.put(msg)
		}
	})
}

// FuzzParseHello: for arbitrary bytes, parseHello either rejects the
// preamble or accepts exactly a known magic from another in-range rank of
// the same ring size, and the accepted preamble re-encodes to the input.
func FuzzParseHello(f *testing.F) {
	hello := func(magic string, rank, n uint32) []byte {
		b := append([]byte(magic), 0, 0, 0, 0, 0, 0, 0, 0)
		binary.LittleEndian.PutUint32(b[4:], rank)
		binary.LittleEndian.PutUint32(b[8:], n)
		return b
	}
	f.Add(hello(tcpMagic, 1, 4))
	f.Add(hello(tcpPeerMagic, 3, 4))
	f.Add(hello(tcpMagic, 2, 4)) // the local rank itself
	f.Add(hello("CKX1", 1, 4))   // unknown magic
	f.Add(hello(tcpMagic, 1, 5)) // another ring size
	f.Add(hello(tcpMagic, 1<<31, 4))
	f.Add([]byte("CKR1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const n, self = 4, 2
		magic, from, err := parseHello(data, n, self)
		if err != nil {
			return
		}
		if magic != tcpMagic && magic != tcpPeerMagic {
			t.Fatalf("accepted magic %q", magic)
		}
		if from < 0 || from >= n || from == self {
			t.Fatalf("accepted dialing rank %d of %d (local %d)", from, n, self)
		}
		if got := hello(magic, uint32(from), n); !bytes.Equal(got, data[:12]) {
			t.Fatalf("accepted %x, re-encodes to %x", data[:12], got)
		}
	})
}

// TestTCPCloseDrainsFinalHops: a rank that closes its transport right
// after its last reduce returns must not strand its partner, whose reduce
// still waits for that rank's final send. On the ring link both ranks
// linger 20ms per batch and rank 1 starts 30ms late, so rank 0's final
// all-gather hop is still lingering in its writer when Close runs: only
// Close's drain lets it out. The hd case runs the same sequence over peer
// links. The partner must finish with the channel ring's exact bits.
func TestTCPCloseDrainsFinalHops(t *testing.T) {
	t.Parallel()
	const dim = 64
	for _, algo := range []Algorithm{AlgoRing, AlgoHD} {
		t.Run(string(algo), func(t *testing.T) {
			t.Parallel()
			want, _ := makeSegs(2, dim)
			for _, err := range reduceAllAlg(buildChanSet(t, 2), want, algo, false) {
				if err != nil {
					t.Fatal(err)
				}
			}
			set := buildTCPSet(t, 2, 20*time.Millisecond)
			defer set.close()
			segs, _ := makeSegs(2, dim)
			opts := Options{Algorithm: algo}
			partner := make(chan error, 1)
			go func() {
				time.Sleep(30 * time.Millisecond)
				partner <- set.rings[1].ReduceWith(1, segs[1], opts)
			}()
			if err := set.rings[0].ReduceWith(0, segs[0], opts); err != nil {
				t.Fatal(err)
			}
			set.rings[0].Transport().Close()
			if err := <-partner; err != nil {
				t.Fatalf("partner stranded by a graceful close: %v", err)
			}
			for j, v := range segs[1] {
				if math.Float64bits(v) != math.Float64bits(want[1][j]) {
					t.Fatalf("partner elem %d: %v, channel ring %v", j, v, want[1][j])
				}
			}
		})
	}
}

package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spear/internal/leakcheck"
	"spear/internal/spe"
	"spear/internal/tuple"
)

// keyedBatch is the grouped-ingest shape of the TCP workload: n tuples
// of (float, one of four 3-byte keys).
func keyedBatch(n int) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.New(int64(i), tuple.Float(float64(i)/3), tuple.String_(fmt.Sprintf("sc%d", i%4)))
	}
	return ts
}

// TestFrameDecoderAllocs is the receive side's allocation gate: in
// steady state a link reader decodes a 64-tuple frame with four
// distinct string keys in at most two allocations (the frame's values
// arena; the Tuples slice and the keys are reused).
func TestFrameDecoderAllocs(t *testing.T) {
	body := AppendBatch(nil, 1, 0, 0, keyedBatch(64))
	d := newFrameDecoder()
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		var f Frame
		if f, err = d.decode(body); err == nil && len(f.Tuples) != 64 {
			err = fmt.Errorf("decoded %d tuples", len(f.Tuples))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("steady-state frame decode: %.2f allocs per 64-tuple frame", allocs)
	if allocs > 2 {
		t.Fatalf("steady-state frame decode: %.1f allocs per frame, want <= 2", allocs)
	}
}

// TestPumpEncodeRetainsOneAlloc is the send side's allocation gate: a
// pump encodes a batch into its reused buffer, and the link retains
// exactly one allocation per frame — the exact-size, length-prefixed
// copy that every (re)transmission writes.
func TestPumpEncodeRetainsOneAlloc(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	l := newLink("parked", 0, 0, &collectHandler{}, nil) // no conn: frames park
	defer l.close()
	ts := keyedBatch(64)
	msgs := make([]spe.Message, len(ts))
	for i := range ts {
		msgs[i] = spe.Message{Tuple: ts[i]}
	}
	enc := newPumpEncoder(len(msgs))
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		if e := enc.sendBatch(l, 0, 0, msgs); e != nil {
			err = e
		}
		l.mu.Lock()
		l.onAckLocked(l.nextSeq) // the peer's credit: release the retained frame
		l.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 1 {
		t.Fatalf("pump encode: %.1f allocs per frame, want exactly 1", allocs)
	}
	if err := enc.sendBatch(l, 0, 0, msgs); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	got, seq := l.unacked[len(l.unacked)-1].frame, l.nextSeq
	l.mu.Unlock()
	if want := AppendBatch(nil, seq, 0, 0, ts); int(binary.LittleEndian.Uint32(got)) != len(want) || string(got[4:]) != string(want) {
		t.Fatalf("retained frame is not the length-prefixed batch encoding of seq %d", seq)
	}
}

// countConn counts socket calls and checks that every Write carries
// exactly one whole length-prefixed frame. cutAfter > 0 fails every
// Write after that many.
type countConn struct {
	net.Conn
	mu       sync.Mutex
	writes   int
	reads    int
	partial  []int // lengths of Writes that were not one whole frame
	cutAfter int
}

func (c *countConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.cutAfter > 0 && c.writes >= c.cutAfter {
		c.mu.Unlock()
		return 0, errors.New("countconn: write cut")
	}
	c.writes++
	if len(p) < 4 || int(binary.LittleEndian.Uint32(p)) != len(p)-4 {
		c.partial = append(c.partial, len(p))
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.reads++
	c.mu.Unlock()
	return c.Conn.Read(p)
}

func (c *countConn) counts() (writes, reads int, partial []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, c.reads, append([]int(nil), c.partial...)
}

// TestLinkSyscallsPerFrame is the syscall gate: every frame — data
// and credits — goes out in one Write, and a reader that falls behind
// drains many frames per Read.
func TestLinkSyscallsPerFrame(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	const n = 256
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(release)
	hb := &collectHandler{gate: gate}
	ca, cb := tcpPair(t)
	a, b := &countConn{Conn: ca}, &countConn{Conn: cb}
	la := newLink("a", n, 0, &collectHandler{}, nil)
	lb := newLink("b", n, 0, hb, nil)
	for _, p := range []struct {
		l *link
		c net.Conn
	}{{la, a}, {lb, b}} {
		if gen := p.l.adopt(p.c, 0); gen < 0 {
			t.Fatal("adopt failed")
		} else {
			p.l.startReader(p.c, gen)
		}
	}
	// The receiver parks on its first frame while the sender writes
	// the rest, so they queue up in the socket as a real backlog would.
	body := AppendBatch(nil, 0, 0, 0, keyedBatch(8))
	for i := 0; i < n; i++ {
		if err := la.sendSeq(body); err != nil {
			t.Fatal(err)
		}
	}
	release()
	waitFor(t, "delivery", func() bool { return hb.count() == n })
	waitFor(t, "final credit", func() bool { return la.awaitDrain(time.Millisecond) })
	la.close()
	lb.close()

	writes, _, partial := a.counts()
	if len(partial) > 0 || writes != n {
		t.Fatalf("sender made %d Writes for %d frames (%d not one whole frame)", writes, n, len(partial))
	}
	credits, reads, partial := b.counts()
	if len(partial) > 0 || credits == 0 {
		t.Fatalf("receiver made %d credit Writes, %d not one whole frame", credits, len(partial))
	}
	t.Logf("%d frames: %d sender Writes, %d receiver Reads, %d credit Writes", n, writes, reads, credits)
	if reads*8 > n {
		t.Fatalf("receiver made %d Reads for %d frames; buffered reads should drain many frames per call", reads, n)
	}
}

// TestLinkRetransmitOneWritePerFrame cuts the wire mid-stream: the
// frames written before the cut, and the retransmit of the
// unacknowledged suffix over the redialed conn, must each take exactly
// one Write, and delivery must stay gapless.
func TestLinkRetransmitOneWritePerFrame(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	const n = 64
	hb := &collectHandler{}
	lb := newLink("b", n, 0, hb, nil)
	la := newLink("a", n, 0, &collectHandler{}, nil)
	var mu sync.Mutex
	var conns []*countConn // the a-side conns, in dial order
	plumb := func(cutAfter int) net.Conn {
		ca, cb := tcpPair(t)
		a := &countConn{Conn: ca, cutAfter: cutAfter}
		mu.Lock()
		conns = append(conns, a)
		mu.Unlock()
		if gen := lb.adopt(cb, lb.delivered64()); gen >= 0 {
			lb.startReader(cb, gen)
		}
		return a
	}
	la.redial = func(epoch uint64) (net.Conn, uint64, error) {
		return plumb(0), lb.delivered64(), nil
	}
	first := plumb(n / 2)
	if gen := la.adopt(first, 0); gen < 0 {
		t.Fatal("initial adopt failed")
	} else {
		la.startReader(first, gen)
	}
	body := AppendBatch(nil, 0, 0, 0, keyedBatch(8))
	for i := 0; i < n; i++ {
		if err := la.sendSeq(body); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "delivery after reconnect", func() bool { return hb.count() == n })
	for i, s := range hb.seqs() {
		if s != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d", i, s)
		}
	}
	la.close()
	lb.close()

	mu.Lock()
	defer mu.Unlock()
	if len(conns) != 2 {
		t.Fatalf("%d connections, want the initial one plus one redial", len(conns))
	}
	w0, _, p0 := conns[0].counts()
	w1, _, p1 := conns[1].counts()
	if len(p0)+len(p1) > 0 {
		t.Fatalf("Writes that were not one whole frame: %v before the cut, %v after", p0, p1)
	}
	// Frame n/2+1 hit the cut, so at least it is retransmitted from the
	// retention buffer; frames n/2+1..n went out on the second conn,
	// plus whatever part of the first n/2 the receiver had not
	// delivered at the redial.
	t.Logf("%d frames: %d Writes before the cut, %d after", n, w0, w1)
	if w0 != n/2 || w1 < n/2 || w1 > n {
		t.Fatalf("Writes: %d before the cut, %d after, for %d frames", w0, w1, n)
	}
}

// frameCodecCorpus is FuzzFrameCodec's seed set plus its checked-in
// corpus.
func frameCodecCorpus(t *testing.T) [][]byte {
	t.Helper()
	in := fuzzFrameSeeds()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzFrameCodec", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		in = append(in, []byte(s))
	}
	return in
}

// legacyBatchTuples decodes a batch frame's tuples the way DecodeFrame
// did before tuple.Decoder: one tuple at a time, one values slice and
// one string copy per value, through tuple.DecodeValue.
func legacyBatchTuples(body []byte) ([]tuple.Tuple, error) {
	r := tuple.NewWireReader(body[1:])
	r.Uvar()
	uvarInt(r)
	uvarInt(r)
	n := r.Count(9)
	if err := r.Err(); err != nil {
		return nil, err
	}
	rest := body[len(body)-r.Remaining():]
	var out []tuple.Tuple
	pos := 0
	for i := 0; i < n; i++ {
		b := rest[pos:]
		if len(b) < 8 {
			return nil, tuple.ErrCorrupt
		}
		t := tuple.Tuple{Ts: int64(binary.LittleEndian.Uint64(b))}
		nv, sz := binary.Uvarint(b[8:])
		if sz <= 0 || nv > uint64(len(b)) {
			return nil, tuple.ErrCorrupt
		}
		p := 8 + sz
		for j := uint64(0); j < nv; j++ {
			v, used, err := tuple.DecodeValue(b[p:])
			if err != nil {
				return nil, err
			}
			t.Vals = append(t.Vals, v)
			p += used
		}
		out = append(out, t)
		pos += p
	}
	if pos != len(rest) {
		return nil, tuple.ErrCorrupt
	}
	return out, nil
}

// TestFrameDecoderDifferential runs FuzzFrameCodec's corpus, and every
// truncation of each entry, through DecodeFrame and through one link
// reader's frameDecoder shared across all inputs (interning and reused
// scratch included): both must accept and reject exactly what the
// legacy per-tuple loop does, with Equal tuples.
func TestFrameDecoderDifferential(t *testing.T) {
	shared := newFrameDecoder()
	for ci, b := range frameCodecCorpus(t) {
		for cut := 0; cut <= len(b); cut++ {
			in := b[:cut]
			f1, err1 := DecodeFrame(in)
			f2, err2 := shared.decode(in)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("entry %d cut %d: DecodeFrame %v, frameDecoder %v", ci, cut, err1, err2)
			}
			if len(in) == 0 || Kind(in[0]) != KindBatch {
				continue
			}
			want, werr := legacyBatchTuples(in)
			if (err1 == nil) != (werr == nil) {
				t.Fatalf("entry %d cut %d: DecodeFrame %v, legacy %v", ci, cut, err1, werr)
			}
			if err1 != nil {
				continue
			}
			for _, got := range [][]tuple.Tuple{f1.Tuples, f2.Tuples} {
				if len(got) != len(want) {
					t.Fatalf("entry %d cut %d: %d tuples, legacy %d", ci, cut, len(got), len(want))
				}
				for i := range want {
					if got[i].Ts != want[i].Ts || len(got[i].Vals) != len(want[i].Vals) {
						t.Fatalf("entry %d cut %d tuple %d: %v, legacy %v", ci, cut, i, got[i], want[i])
					}
					for j := range want[i].Vals {
						if !got[i].Vals[j].Equal(want[i].Vals[j]) {
							t.Fatalf("entry %d cut %d tuple %d: %v, legacy %v", ci, cut, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"spear/internal/leakcheck"
	"spear/internal/obs"
)

// collectHandler records delivered frames; an optional gate blocks
// Frame so tests can park the reader and starve the peer's credits.
type collectHandler struct {
	mu     sync.Mutex
	frames []Frame
	fatal  error
	gate   chan struct{} // nil = never block
}

func (h *collectHandler) Frame(f Frame) error {
	if h.gate != nil {
		<-h.gate
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.frames = append(h.frames, f)
	return nil
}

func (h *collectHandler) Fatal(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fatal == nil {
		h.fatal = err
	}
}

func (h *collectHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.frames)
}

func (h *collectHandler) seqs() []uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]uint64, len(h.frames))
	for i, f := range h.frames {
		out[i] = f.Seq
	}
	return out
}

// tcpPair returns both ends of one loopback TCP connection. Unlike
// net.Pipe, kernel socket buffers absorb writes, so back-pressure in
// these tests comes from the credit window — as on a real wire.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := lis.Accept()
		acc <- accepted{c, err}
	}()
	ca, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-acc
	if a.err != nil {
		t.Fatal(a.err)
	}
	return ca, a.conn
}

// linkPair wires two links over one loopback TCP connection, readers
// running, and returns them with a teardown that closes both. tobsA
// instruments the a side (nil for none).
func linkPair(t *testing.T, window, creditEvery int, ha, hb linkHandler, tobsA *obs.TransportObs) (*link, *link) {
	t.Helper()
	ca, cb := tcpPair(t)
	la := newLink("a", window, creditEvery, ha, tobsA)
	lb := newLink("b", window, creditEvery, hb, nil)
	if gen := la.adopt(ca, 0); gen < 0 {
		t.Fatal("link a failed to adopt")
	} else {
		la.startReader(ca, gen)
	}
	if gen := lb.adopt(cb, 0); gen < 0 {
		t.Fatal("link b failed to adopt")
	} else {
		lb.startReader(cb, gen)
	}
	t.Cleanup(func() {
		la.close()
		lb.close()
	})
	return la, lb
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLinkDeliversInOrder(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	hb := &collectHandler{}
	la, _ := linkPair(t, 0, 0, &collectHandler{}, hb, nil)
	const n = 50
	for i := 0; i < n; i++ {
		wm := int64(i)
		if err := la.sendSeq(AppendWatermark(nil, 0, 0, 0, wm)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all frames", func() bool { return hb.count() == n })
	for i, f := range hb.frames {
		if f.Seq != uint64(i+1) || f.WM != int64(i) {
			t.Fatalf("frame %d: seq %d wm %d", i, f.Seq, f.WM)
		}
	}
}

// TestLinkCreditBackpressure parks the receiver's handler and keeps
// sending: with credits starved the sender must plateau at the window
// bound, record the stall, and resume once the receiver drains.
func TestLinkCreditBackpressure(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	const window = 4
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(release) // a parked reader must not outlive a failed test
	hb := &collectHandler{gate: gate}
	tob := &obs.TransportObs{}
	la, _ := linkPair(t, window, 1, &collectHandler{}, hb, tob)

	const total = 3 * window
	var sent int64
	var sentMu sync.Mutex
	count := func() int64 { sentMu.Lock(); defer sentMu.Unlock(); return sent }
	go func() {
		for i := 0; i < total; i++ {
			if err := la.sendSeq(AppendGoodbye(nil, 0)); err != nil {
				return
			}
			sentMu.Lock()
			sent++
			sentMu.Unlock()
		}
	}()
	// The receiver parks with one frame inside the handler (delivered
	// and credited), so completed sends plateau at window+1.
	waitFor(t, "sends up to the window", func() bool { return count() >= window })
	time.Sleep(100 * time.Millisecond)
	if n := count(); n > window+1 {
		t.Fatalf("%d sends completed with credits starved (window %d)", n, window)
	}
	if tob.CreditStalls.Load() == 0 {
		t.Error("no credit stall recorded")
	}
	release() // receiver drains; credits flow; the sender finishes
	waitFor(t, "all sends", func() bool { return count() == total })
	waitFor(t, "delivery", func() bool { return hb.count() == total })
}

// cutPipe returns a pipe end whose Write fails after n calls, without
// closing the underlying conn (the test controls both ends).
type flakyConn struct {
	net.Conn
	mu   sync.Mutex
	left int
}

func (c *flakyConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.left--
	dead := c.left < 0
	c.mu.Unlock()
	if dead {
		return 0, errors.New("flaky: write cut")
	}
	return c.Conn.Write(p)
}

// TestLinkReconnectReplaysUnacked cuts the wire mid-stream and lets
// the redial hook hand the link a fresh pipe: the unacknowledged
// suffix must be retransmitted, the receiver's duplicate filter must
// drop redeliveries, and the final delivery order must be gapless.
func TestLinkReconnectReplaysUnacked(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	hb := &collectHandler{}
	lb := newLink("b", 0, 1, hb, nil)
	la := newLink("a", 0, 1, &collectHandler{}, nil)

	plumb := func(cut int) net.Conn {
		ca, cb := tcpPair(t)
		var aEnd net.Conn = ca
		if cut > 0 {
			aEnd = &flakyConn{Conn: ca, left: cut}
		}
		if gen := lb.adopt(cb, lb.delivered64()); gen >= 0 {
			lb.startReader(cb, gen)
		}
		return aEnd
	}

	redialed := make(chan struct{}, 1)
	la.redial = func(epoch uint64) (net.Conn, uint64, error) {
		redialed <- struct{}{}
		// The peer advertises what it has delivered, exactly like the
		// live handshake does.
		return plumb(0), lb.delivered64(), nil
	}

	first := plumb(3) // three writes, then the wire dies
	if gen := la.adopt(first, 0); gen < 0 {
		t.Fatal("initial adopt failed")
	} else {
		la.startReader(first, gen)
	}

	const n = 10
	for i := 0; i < n; i++ {
		if err := la.sendSeq(AppendGoodbye(nil, 0)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-redialed:
	case <-time.After(5 * time.Second):
		t.Fatal("the cut did not trigger a redial")
	}
	waitFor(t, "all frames after reconnect", func() bool { return hb.count() == n })
	for i, s := range hb.seqs() {
		if s != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d: gap or duplicate survived", i, s)
		}
	}
	la.close()
	lb.close()
}

// TestLinkRedialExhaustionIsFatal verifies a dead wire with a failing
// redial surfaces as the handler's Fatal, exactly once.
func TestLinkRedialExhaustionIsFatal(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	ha := &collectHandler{}
	la := newLink("a", 0, 1, ha, nil)
	la.redial = func(epoch uint64) (net.Conn, uint64, error) {
		return nil, 0, fmt.Errorf("injected: no peer")
	}
	ca, cb := tcpPair(t)
	_ = cb.Close() // the wire is already dead; writes fail fast
	if gen := la.adopt(ca, 0); gen < 0 {
		t.Fatal("adopt failed")
	} else {
		la.startReader(ca, gen)
	}
	// The reader notices the dead wire on its own; sends just hasten
	// it (the first write may still land in the local socket buffer).
	waitFor(t, "fatal", func() bool {
		_ = la.sendSeq(AppendGoodbye(nil, 0))
		ha.mu.Lock()
		defer ha.mu.Unlock()
		return ha.fatal != nil
	})
	if err := la.lastErr(); err == nil {
		t.Error("terminal error not latched")
	}
	if err := la.sendSeq(AppendGoodbye(nil, 0)); err == nil {
		t.Error("sendSeq succeeded on a dead link")
	}
	la.close()
}

// TestLinkCloseFlushesCredit pins the shutdown credit flush: a link
// that delivered frames but has not credited them yet must ship the
// final cumulative credit inside close(), so a peer blocked in
// awaitDrain sees its frames acknowledged instead of timing out.
func TestLinkCloseFlushesCredit(t *testing.T) {
	defer leakcheck.Check(t, leakcheck.Timeout(5*time.Second))
	// creditEvery is huge: the async credit path stays silent and the
	// only acknowledgment can come from close().
	la, lb := linkPair(t, 64, 1<<30, &collectHandler{}, &collectHandler{}, nil)
	const n = 5
	for i := 0; i < n; i++ {
		if err := la.sendSeq(AppendGoodbye(nil, 0)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "delivery", func() bool { return lb.delivered64() == n })
	done := make(chan bool, 1)
	go func() { done <- la.awaitDrain(4 * time.Second) }()
	time.Sleep(20 * time.Millisecond) // let the drain park
	lb.close()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("awaitDrain timed out: close did not flush the credit")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("awaitDrain never returned")
	}
}

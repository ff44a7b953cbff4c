package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"time"

	"spear/internal/obs"
)

// Defaults for the sliding-window protocol and the dialer's capped
// reconnect backoff.
const (
	defaultWindow   = 256
	defaultRedials  = 6
	defaultBackoff  = 50 * time.Millisecond
	defaultBackMax  = 2 * time.Second
	helloTimeout    = 5 * time.Second
	defaultPeerWait = 15 * time.Second
)

// Dialer abstracts connection establishment so tests can inject
// faults (refused dials, connections cut mid-stream, duplicated
// connections) without a real network failure.
type Dialer interface {
	Dial(addr string) (net.Conn, error)
}

// NetDialer dials TCP with a timeout.
type NetDialer struct {
	Timeout time.Duration // zero selects 5s
}

// Dial implements Dialer.
func (d NetDialer) Dial(addr string) (net.Conn, error) {
	t := d.Timeout
	if t <= 0 {
		t = 5 * time.Second
	}
	return net.DialTimeout("tcp", addr, t)
}

// sentFrame is one retained unacknowledged frame, length prefix
// included, so every (re)transmission is a single Write.
type sentFrame struct {
	seq   uint64
	frame []byte
}

// linkHandler receives the link's inbound payload frames, on the
// reader goroutine. Blocking in Frame is the intended back-pressure:
// a full engine queue stops the socket read, the peer's credits dry
// up, and the peer's senders block.
type linkHandler interface {
	// Frame delivers one deduplicated, in-order sequenced frame. The
	// f.Tuples slice belongs to the reader and is reused for the next
	// frame: it is valid only until Frame returns, so a handler that
	// keeps tuples copies them out (the tuples' values themselves stay
	// valid).
	Frame(f Frame) error
	// Fatal reports the link's terminal failure (redials exhausted,
	// protocol violation, peer reject). Called at most once.
	Fatal(err error)
}

// link is one reliable duplex connection between the source and a
// shard node. Both directions run the same sliding-window protocol:
// sequenced frames are retained until the peer's cumulative credit
// acknowledges them, the retention bound is the credit window (so a
// slow receiver blocks the sender — back-pressure), and on reconnect
// the unacknowledged suffix beyond the peer's delivered sequence is
// retransmitted in order.
//
// Locking: mu guards all bookkeeping; wmu serializes socket writes
// and is acquired only while holding mu (then mu is released for the
// blocking write), so wire order always equals sequence order. The
// reader goroutine never takes wmu — credits go through an async
// one-slot sender — which breaks the four-party deadlock where both
// peers' writers sit on full TCP buffers waiting for readers that
// are waiting on the write lock.
type link struct {
	name    string // peer label for errors and telemetry
	handler linkHandler
	tobs    *obs.TransportObs

	wmu sync.Mutex // socket write order; see locking note above

	mu   sync.Mutex
	cond *sync.Cond
	conn net.Conn
	gen  int // bumps on every adopted conn; stale readers exit

	closed  bool           // orderly shutdown: reader exit is not an error
	err     error          // terminal failure, latched once
	readers sync.WaitGroup // live reader goroutines; close() waits them out

	// Send direction.
	nextSeq uint64 // last assigned sequence number
	acked   uint64 // peer-confirmed cumulative sequence
	window  int
	unacked []sentFrame

	// Receive direction.
	delivered   uint64 // last in-order sequence handed to the handler
	credited    uint64 // last sequence the credit sender shipped
	creditEvery int
	creditKick  chan struct{} // one-slot wakeup for the credit sender

	// Dialer side only: reconnect machinery. redial performs
	// dial + handshake for the given epoch and returns the new conn
	// and the peer's delivered sequence.
	redial func(epoch uint64) (net.Conn, uint64, error)
	epoch  uint64
}

func newLink(name string, window, creditEvery int, h linkHandler, tobs *obs.TransportObs) *link {
	if window <= 0 {
		window = defaultWindow
	}
	if creditEvery <= 0 {
		creditEvery = window / 4
		if creditEvery < 1 {
			creditEvery = 1
		}
	}
	l := &link{
		name: name, handler: h, tobs: tobs,
		window: window, creditEvery: creditEvery,
		creditKick: make(chan struct{}, 1),
	}
	l.cond = sync.NewCond(&l.mu)
	go l.creditLoop()
	return l
}

// sendSeq sends one sequenced frame. body is the frame encoded with
// sequence number 0 (its second byte); sendSeq stamps the next
// sequence number into an exact-size, length-prefixed copy under the
// lock, retains that copy for retransmission, and writes it out with
// one Write. The caller keeps body (a reusable encode buffer): the
// per-tuple encoding happens before the lock. sendSeq blocks while the
// peer's credit window is exhausted — this is the transport's
// back-pressure. With the connection down the frame is parked in the
// retention buffer and delivered by the reconnect retransmit.
func (l *link) sendSeq(body []byte) error {
	if len(body) < 2 || body[1] != 0 || !sequenced(Kind(body[0])) {
		return fmt.Errorf("%w: sendSeq needs a sequenced frame encoded with seq 0", ErrFrame)
	}
	l.mu.Lock()
	for l.err == nil && !l.closed && l.nextSeq-l.acked >= uint64(l.window) {
		if l.tobs != nil {
			l.tobs.CreditStalls.Add(1)
		}
		l.cond.Wait()
	}
	if l.err != nil || l.closed {
		err := l.err
		l.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("transport: link %s closed", l.name)
		}
		return err
	}
	l.nextSeq++
	frame := stampFrame(body, l.nextSeq)
	l.unacked = append(l.unacked, sentFrame{seq: l.nextSeq, frame: frame})
	l.wmu.Lock() // under mu: wmu queue order = sequence order
	conn := l.conn
	l.mu.Unlock()
	var werr error
	if conn != nil {
		werr = l.write(conn, frame)
	}
	l.wmu.Unlock()
	if werr != nil {
		l.connLost(conn, werr)
	}
	return nil
}

// stampFrame returns body (encoded with sequence 0) as a
// length-prefixed frame carrying seq, in one exact-size allocation.
func stampFrame(body []byte, seq uint64) []byte {
	n := len(body) - 1 + (bits.Len64(seq|1)+6)/7
	frame := make([]byte, 4, 4+n)
	binary.LittleEndian.PutUint32(frame, uint32(n))
	frame = append(frame, body[0])
	frame = binary.AppendUvarint(frame, seq)
	return append(frame, body[2:]...)
}

// framed returns body as a length-prefixed frame for a single Write.
func framed(body []byte) []byte {
	frame := make([]byte, 4, 4+len(body))
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	return append(frame, body...)
}

// write puts one length-prefixed frame on conn with a single Write and
// counts it. Callers hold wmu.
func (l *link) write(conn net.Conn, frame []byte) error {
	if n := len(frame) - 4; n <= 0 || n > MaxFrame {
		return fmt.Errorf("%w: body of %d bytes", ErrFrame, n)
	}
	if _, err := conn.Write(frame); err != nil {
		return err
	}
	if l.tobs != nil {
		l.tobs.TxFrames.Add(1)
		l.tobs.TxBytes.Add(int64(len(frame)))
	}
	return nil
}

// creditLoop ships cumulative acknowledgments asynchronously: the
// reader bumps the target and kicks, this goroutine writes the newest
// value. Credits are cumulative, so skipped intermediate values cost
// nothing, and the reader never blocks on the write lock.
func (l *link) creditLoop() {
	for range l.creditKick {
		l.mu.Lock()
		if l.closed || l.err != nil {
			l.mu.Unlock()
			return
		}
		target := l.delivered
		if target <= l.credited {
			l.mu.Unlock()
			continue
		}
		l.credited = target
		l.wmu.Lock()
		conn := l.conn
		l.mu.Unlock()
		var werr error
		if conn != nil {
			werr = l.write(conn, framed(AppendCredit(nil, target)))
		}
		l.wmu.Unlock()
		if werr != nil {
			l.connLost(conn, werr)
		}
	}
}

// kickCredit wakes the credit sender (coalescing: one pending kick is
// enough, the sender reads the latest value).
func (l *link) kickCredit() {
	select {
	case l.creditKick <- struct{}{}:
	default:
	}
}

// sendUnseq writes one unsequenced frame (a reject, advisory only):
// best-effort, silently dropped when the connection is down.
func (l *link) sendUnseq(body []byte) {
	frame := framed(body)
	l.mu.Lock()
	l.wmu.Lock()
	conn := l.conn
	l.mu.Unlock()
	var werr error
	if conn != nil {
		werr = l.write(conn, frame)
	}
	l.wmu.Unlock()
	if werr != nil {
		l.connLost(conn, werr)
	}
}

// connected reports whether a live connection is adopted.
func (l *link) connected() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn != nil
}

// connLost drops conn if it is still current. The dialer side spawns
// a redial; the listener side waits for the peer to dial back (the
// server's accept loop adopts the new conn).
func (l *link) connLost(conn net.Conn, cause error) {
	l.mu.Lock()
	if l.conn != conn || conn == nil || l.closed || l.err != nil {
		l.mu.Unlock()
		return
	}
	_ = conn.Close()
	l.conn = nil
	l.gen++
	l.cond.Broadcast()
	spawn := l.redial != nil
	l.mu.Unlock()
	if spawn {
		go l.redialLoop(cause)
	}
}

// redialLoop re-establishes the connection via the injected redial
// function (dial + handshake, returning the peer's delivered
// sequence). The redial function owns backoff and attempt caps; when
// it gives up, its error becomes the link's terminal failure.
func (l *link) redialLoop(cause error) {
	l.mu.Lock()
	if l.closed || l.err != nil || l.conn != nil {
		l.mu.Unlock()
		return
	}
	l.epoch++
	epoch := l.epoch
	l.mu.Unlock()

	conn, peerAcked, err := l.redial(epoch)
	if err != nil {
		l.fatal(fmt.Errorf("transport: link %s: reconnect after %q: %w", l.name, cause, err))
		return
	}
	if l.tobs != nil {
		l.tobs.Reconnects.Add(1)
	}
	if gen := l.adopt(conn, peerAcked); gen >= 0 {
		l.startReader(conn, gen)
	}
}

// adopt installs a fresh connection: prunes frames the peer has
// delivered, retransmits the rest in order, and wakes writers. It
// returns the connection's generation (for startReader), or -1 if
// the link is already down or the retransmit failed.
func (l *link) adopt(conn net.Conn, peerAcked uint64) int {
	l.mu.Lock()
	if l.closed || l.err != nil {
		l.mu.Unlock()
		_ = conn.Close()
		return -1
	}
	if l.conn != nil {
		// A duplicate connection raced in; newest wins, the old
		// reader exits on the closed conn with a stale gen.
		_ = l.conn.Close()
	}
	l.conn = conn
	l.gen++
	gen := l.gen
	l.onAckLocked(peerAcked)
	// Snapshot the retransmit suffix, then write it holding wmu only:
	// new sendSeq calls queue behind us on wmu, so order holds.
	pending := make([][]byte, 0, len(l.unacked))
	for _, f := range l.unacked {
		if f.seq > peerAcked {
			pending = append(pending, f.frame)
		}
	}
	l.wmu.Lock()
	l.mu.Unlock()
	var werr error
	for _, frame := range pending {
		if werr = l.write(conn, frame); werr != nil {
			break
		}
	}
	l.wmu.Unlock()
	if werr != nil {
		l.connLost(conn, werr)
		return -1
	}
	l.cond.Broadcast()
	return gen
}

// onAckLocked drops retained frames up to acked and wakes writers
// blocked on the window.
func (l *link) onAckLocked(acked uint64) {
	if acked <= l.acked {
		return
	}
	l.acked = acked
	i := 0
	for i < len(l.unacked) && l.unacked[i].seq <= acked {
		i++
	}
	if i > 0 {
		l.unacked = append(l.unacked[:0], l.unacked[i:]...)
	}
	l.cond.Broadcast()
}

// startReader spawns the frame-dispatch loop for the adopted conn of
// generation gen. It exits when the conn is replaced, closed, or
// fails; sequenced frames are deduplicated and gap-checked before the
// handler sees them. The handshake frames were read unbuffered before
// adoption, so the reader's buffer starts at the first payload frame
// and one socket read can carry many frames. The reader owns one frame
// decoder for the conn's life; see linkHandler.Frame for what that
// means for a delivered frame's tuples.
func (l *link) startReader(conn net.Conn, gen int) {
	l.readers.Add(1)
	go func() {
		defer l.readers.Done()
		fr := frameReader{br: bufio.NewReaderSize(conn, readBuffer)}
		dec := newFrameDecoder()
		for {
			body, err := fr.next()
			if err != nil {
				l.mu.Lock()
				stale := l.gen != gen || l.closed || l.err != nil
				l.mu.Unlock()
				if !stale {
					l.connLost(conn, err)
				}
				return
			}
			if l.tobs != nil {
				l.tobs.RxFrames.Add(1)
				l.tobs.RxBytes.Add(int64(len(body)) + 4)
			}
			f, err := dec.decode(body)
			if err != nil {
				l.fatal(fmt.Errorf("transport: link %s: %w", l.name, err))
				return
			}
			switch {
			case f.Kind == KindCredit:
				l.mu.Lock()
				l.onAckLocked(f.Acked)
				l.mu.Unlock()
			case f.Kind == KindReject:
				l.fatal(fmt.Errorf("transport: link %s: peer rejected: %s", l.name, f.Reason))
				return
			case sequenced(f.Kind):
				l.mu.Lock()
				if l.gen != gen {
					// The conn was replaced or closed while this reader
					// still held buffered frames: they belong to the new
					// conn's retransmit now, so stop here.
					l.mu.Unlock()
					return
				}
				if f.Seq <= l.delivered {
					// Redelivery after a reconnect; already handled.
					l.mu.Unlock()
					continue
				}
				if f.Seq != l.delivered+1 {
					l.mu.Unlock()
					l.fatal(fmt.Errorf("transport: link %s: sequence gap: got %d after %d", l.name, f.Seq, l.delivered))
					return
				}
				l.delivered = f.Seq
				l.mu.Unlock()
				l.kickCredit()
				// The handler may block (engine back-pressure); the
				// async credit path keeps acknowledgments flowing for
				// frames already delivered.
				if err := l.handler.Frame(f); err != nil {
					l.fatal(fmt.Errorf("transport: link %s: %w", l.name, err))
					return
				}
			default:
				l.fatal(fmt.Errorf("transport: link %s: unexpected %s frame", l.name, f.Kind))
				return
			}
		}
	}()
}

// readBuffer sizes a link reader's socket buffer: one read syscall
// carries up to this many bytes of frames.
const readBuffer = 64 << 10

// frameReader reads length-prefixed frames through a buffered reader.
// A frame that fits the buffer is returned in place, without a copy,
// and stays valid only until the next call: the decoder copies or
// interns everything it keeps. A larger frame is read into a separate
// buffer grown on demand.
type frameReader struct {
	br   *bufio.Reader
	big  []byte
	used int // bytes of the frame returned last, discarded on the next call
}

func (r *frameReader) next() ([]byte, error) {
	if _, err := r.br.Discard(r.used); err != nil {
		return nil, err
	}
	r.used = 0
	hdr, err := r.br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("%w: length prefix %d", ErrFrame, n)
	}
	if 4+n <= r.br.Size() {
		frame, err := r.br.Peek(4 + n)
		if err != nil {
			return nil, err
		}
		r.used = 4 + n
		return frame[4:], nil
	}
	if _, err := r.br.Discard(4); err != nil {
		return nil, err
	}
	if cap(r.big) < n {
		r.big = make([]byte, n)
	}
	r.big = r.big[:n]
	if _, err := io.ReadFull(r.br, r.big); err != nil {
		return nil, err
	}
	return r.big, nil
}

// fatal latches the link's terminal error, closes the conn, wakes
// every waiter, and notifies the handler exactly once.
func (l *link) fatal(err error) {
	l.mu.Lock()
	if l.closed || l.err != nil {
		l.mu.Unlock()
		return
	}
	l.err = err
	if l.conn != nil {
		_ = l.conn.Close()
		l.conn = nil
	}
	l.gen++
	l.cond.Broadcast()
	l.mu.Unlock()
	l.kickCredit() // unblock the credit sender so it can exit
	l.handler.Fatal(err)
}

// awaitDrain blocks until the peer has acknowledged every sent frame,
// the timeout passes, or the link dies. It reports whether the drain
// completed.
func (l *link) awaitDrain(timeout time.Duration) bool {
	var timedOut bool
	t := time.AfterFunc(timeout, func() {
		l.mu.Lock()
		timedOut = true
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer t.Stop()
	l.mu.Lock()
	for l.err == nil && !l.closed && len(l.unacked) > 0 && !timedOut {
		l.cond.Wait()
	}
	ok := len(l.unacked) == 0
	l.mu.Unlock()
	return ok
}

// close shuts the link down in an orderly way: no reconnects, reader
// and credit sender exit silently, writers fail with a closed error.
// An outstanding credit is flushed first — the peer may be in
// awaitDrain waiting for exactly that acknowledgment, and the async
// credit sender loses the race against the conn teardown.
func (l *link) close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	conn := l.conn
	l.conn = nil
	l.gen++
	var credit []byte
	if conn != nil && l.delivered > l.credited {
		l.credited = l.delivered
		credit = framed(AppendCredit(nil, l.delivered))
	}
	l.cond.Broadcast()
	l.wmu.Lock() // under mu, then released for the write: order holds
	l.mu.Unlock()
	if credit != nil {
		_ = l.write(conn, credit)
	}
	l.wmu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	l.kickCredit()
	// The conn is closed and closed is latched, so any reader exits on
	// its next read or stale-generation check; a reader parked in
	// the handler returns once the engine side unwinds (the handler
	// never calls close on its own link).
	l.readers.Wait()
}

// lastErr returns the latched terminal error, if any.
func (l *link) lastErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// delivered64 returns the last in-order sequence delivered to the
// handler (the value handshakes advertise).
func (l *link) delivered64() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.delivered
}

// backoffFor returns the capped exponential backoff for attempt n
// (0-based).
func backoffFor(n int, base, max time.Duration) time.Duration {
	if base <= 0 {
		base = defaultBackoff
	}
	if max <= 0 {
		max = defaultBackMax
	}
	d := base << uint(n)
	if d > max || d <= 0 {
		d = max
	}
	return d
}

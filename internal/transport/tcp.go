package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dup/internal/proto"
	"dup/internal/rng"
	"dup/internal/wire"
)

// TCPConfig parametrises a TCP transport.
type TCPConfig struct {
	// Listen is the address to accept inbound frames on ("" for a
	// send-only transport). Use "127.0.0.1:0" in tests and read the bound
	// address back with Addr.
	Listen string
	// Peers maps remote node ids to dial addresses. Several ids may share
	// one address (a daemon hosting several peers behind one listener).
	// SetPeer adds or updates entries after construction.
	Peers map[int]string

	// DialTimeout bounds one dial attempt (default 2s).
	DialTimeout time.Duration
	// BackoffBase and BackoffMax shape the exponential dial retry with
	// jitter: attempt n sleeps min(BackoffMax, BackoffBase<<n) scaled by a
	// uniform factor in [0.5, 1.5). Defaults 25ms and 1s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// QueueLen is the per-connection write queue depth (default 256);
	// when the queue is full, new messages are dropped, not blocked on.
	QueueLen int
	// KeepAlivePeriod is the TCP-level keep-alive interval on every
	// connection (default 15s; <0 disables).
	KeepAlivePeriod time.Duration
	// Seed drives the backoff jitter.
	Seed uint64
	// Logf, when set, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (c *TCPConfig) fill() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 256
	}
	if c.KeepAlivePeriod == 0 {
		c.KeepAlivePeriod = 15 * time.Second
	}
}

// TCP is the socket transport. Outbound connections are dialled lazily on
// the first send to a peer address and reused for every later message to
// that address; each has a single writer goroutine draining a bounded
// queue, so senders never block on the network.
type TCP struct {
	cfg TCPConfig

	ctx    context.Context
	cancel context.CancelFunc
	ln     net.Listener

	// handlers is a copy-on-write table: Register/RegisterBurst build a
	// fresh table under mu and swap the pointer, so the dispatch hot paths
	// (readLoop, Send's local delivery) do one atomic load and never touch
	// the mutex.
	handlers atomic.Pointer[handlerTable]

	mu      sync.Mutex
	peers   map[int]string
	conns   map[string]*peerConn // outbound, keyed by address
	inbound map[net.Conn]struct{}

	jmu sync.Mutex
	src *rng.Source

	drops     atomic.Int64
	kindDrops [proto.NumKinds]atomic.Int64
	framesOut atomic.Int64
	closed    atomic.Bool
	wg        sync.WaitGroup

	// Permanent-failure signal: failed is closed (with failErr set first)
	// when the transport can no longer serve — e.g. the listener dies and
	// stays dead — so a daemon can exit non-zero instead of running deaf.
	failed   chan struct{}
	failErr  error
	failOnce sync.Once
}

// peerConn is one reused outbound connection: a bounded frame queue and
// the writer goroutine that owns dialling, writing and reconnecting.
type peerConn struct {
	addr  string
	queue chan *[]byte
}

// handlerTable is one immutable snapshot of the registered handlers.
// Readers load it atomically and index without locks; writers clone,
// mutate and swap under t.mu.
type handlerTable struct {
	single map[int]Handler
	burst  map[int]BurstHandler
}

func (tab *handlerTable) clone() *handlerTable {
	nt := &handlerTable{
		single: make(map[int]Handler, len(tab.single)+1),
		burst:  make(map[int]BurstHandler, len(tab.burst)+1),
	}
	for id, h := range tab.single {
		nt.single[id] = h
	}
	for id, h := range tab.burst {
		nt.burst[id] = h
	}
	return nt
}

// NewTCP returns a started transport. With a Listen address it binds
// immediately, so Addr is valid as soon as NewTCP returns.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	t := &TCP{
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		peers:   make(map[int]string, len(cfg.Peers)),
		conns:   make(map[string]*peerConn),
		inbound: make(map[net.Conn]struct{}),
		src:     rng.New(cfg.Seed),
		failed:  make(chan struct{}),
	}
	t.handlers.Store(&handlerTable{
		single: make(map[int]Handler),
		burst:  make(map[int]BurstHandler),
	})
	for id, addr := range cfg.Peers {
		t.peers[id] = addr
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
		}
		t.ln = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	return t, nil
}

// fail records the first permanent failure and closes the Done channel.
func (t *TCP) fail(err error) {
	t.failOnce.Do(func() {
		t.failErr = err
		close(t.failed)
	})
}

// Done is closed when the transport has failed permanently (the listener
// died and stayed dead). A daemon selects on it next to its signal and
// deadline channels so it can exit non-zero instead of running deaf; an
// orderly Close never fires it.
func (t *TCP) Done() <-chan struct{} { return t.failed }

// Err returns the permanent failure, or nil. Only meaningful after Done
// is closed.
func (t *TCP) Err() error {
	select {
	case <-t.failed:
		return t.failErr
	default:
		return nil
	}
}

// Addr returns the bound listen address ("" for a send-only transport).
func (t *TCP) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Register installs the handler for node id (nil uninstalls). Sends
// addressed to locally registered ids are delivered directly, without
// touching the network. Registration swaps a fresh copy-on-write table,
// so in-flight dispatches finish against the snapshot they loaded.
func (t *TCP) Register(id int, h Handler) {
	t.mu.Lock()
	nt := t.handlers.Load().clone()
	if h == nil {
		delete(nt.single, id)
	} else {
		nt.single[id] = h
	}
	t.handlers.Store(nt)
	t.mu.Unlock()
}

// RegisterBurst installs the burst handler for node id (nil uninstalls),
// making it the dispatch path for frames read off inbound connections.
// The per-message handler registered via Register keeps serving local
// sends.
func (t *TCP) RegisterBurst(id int, h BurstHandler) {
	t.mu.Lock()
	nt := t.handlers.Load().clone()
	if h == nil {
		delete(nt.burst, id)
	} else {
		nt.burst[id] = h
	}
	t.handlers.Store(nt)
	t.mu.Unlock()
}

// SetPeer adds or updates the dial address for a remote node id.
func (t *TCP) SetPeer(id int, addr string) {
	t.mu.Lock()
	t.peers[id] = addr
	t.mu.Unlock()
}

// Send routes m to node m.To: directly to a local handler, or framed onto
// the reused connection for the peer's address.
func (t *TCP) Send(m *proto.Message) {
	if t.closed.Load() {
		proto.Release(m)
		return
	}
	if h := t.handlers.Load().single[m.To]; h != nil {
		if !h(m) {
			t.drop(m)
		}
		return
	}
	t.mu.Lock()
	addr := t.peers[m.To]
	t.mu.Unlock()
	if addr == "" {
		t.drop(m)
		return
	}
	bufp := wire.GetBuf()
	*bufp = wire.AppendFrame((*bufp)[:0], m)
	kind := m.Kind
	proto.Release(m)
	pc := t.conn(addr)
	if pc == nil {
		wire.PutBuf(bufp)
		t.dropKind(kind)
		return
	}
	select {
	case pc.queue <- bufp:
		// The writer goroutine returns the buffer to the pool after the
		// frame is on the wire.
	default:
		wire.PutBuf(bufp)
		t.dropKind(kind)
	}
}

func (t *TCP) drop(m *proto.Message) {
	t.dropKind(m.Kind)
	proto.Release(m)
}

func (t *TCP) dropKind(k proto.Kind) {
	t.drops.Add(1)
	if int(k) < proto.NumKinds {
		t.kindDrops[k].Add(1)
	}
}

// Drops reports dropped messages.
func (t *TCP) Drops() int64 { return t.drops.Load() }

// FramesOut reports how many frames have been written to outbound
// connections. Divided by a protocol-level message count it measures how
// well the send-side coalescer amortizes syscalls and frames.
func (t *TCP) FramesOut() int64 { return t.framesOut.Load() }

// KindDrops reports dropped messages broken down by kind.
func (t *TCP) KindDrops() [proto.NumKinds]int64 {
	var out [proto.NumKinds]int64
	for k := range out {
		out[k] = t.kindDrops[k].Load()
	}
	return out
}

// conn returns the reused connection for addr, creating it (and its
// writer goroutine) on first use.
func (t *TCP) conn(addr string) *peerConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return nil
	}
	pc := t.conns[addr]
	if pc == nil {
		pc = &peerConn{addr: addr, queue: make(chan *[]byte, t.cfg.QueueLen)}
		t.conns[addr] = pc
		t.wg.Add(1)
		go t.writeLoop(pc)
	}
	return pc
}

// maxGather bounds how many queued frames one vectored write carries.
// Linux caps one writev at IOV_MAX (1024) iovecs; staying far below it
// keeps per-burst latency flat while still amortizing the syscall.
const maxGather = 64

// writeLoop owns one outbound connection: dial with backoff, drain the
// queue, reconnect on error. Queued frames are gathered into one vectored
// write (net.Buffers, writev on Linux): a burst of coalesced outbox
// flushes leaves in a single syscall with no intermediate copy into a
// bufio buffer. Frames lost to a failed write are counted as drops; the
// protocol's keep-alives re-establish state after reconnects.
func (t *TCP) writeLoop(pc *peerConn) {
	defer t.wg.Done()
	// Reused across bursts: the pooled frame buffers drained from the
	// queue and the byte-slice views handed to writev. views entries are
	// re-sliced by a partial write, so they are refilled every burst. vecs
	// lives out here because WriteTo has a pointer receiver: declared per
	// burst it would cost one heap object per writev.
	bufs := make([]*[]byte, 0, maxGather)
	views := make([][]byte, maxGather)
	var vecs net.Buffers
	for {
		conn := t.dial(pc.addr)
		if conn == nil {
			return // shutting down
		}
		for {
			var bufp *[]byte
			select {
			case <-t.ctx.Done():
				conn.Close()
				return
			case bufp = <-pc.queue:
			}
			// Opportunistically gather whatever queued while the last
			// burst was writing: one writev for the whole backlog.
			bufs = append(bufs[:0], bufp)
			for len(bufs) < maxGather {
				select {
				case b := <-pc.queue:
					bufs = append(bufs, b)
					continue
				default:
				}
				break
			}
			for i, b := range bufs {
				views[i] = *b
			}
			vecs = views[:len(bufs)]
			_, err := vecs.WriteTo(conn)
			lastKind := frameKind(bufs[len(bufs)-1])
			for _, b := range bufs {
				wire.PutBuf(b)
			}
			if err != nil {
				t.dropKind(lastKind)
				conn.Close()
				t.logf("transport: write %s: %v (reconnecting)", pc.addr, err)
				break
			}
			t.framesOut.Add(int64(len(bufs)))
		}
	}
}

// frameKind reads the kind byte out of an encoded frame (length prefix,
// version byte, then the kind) so a post-encode drop can still be
// attributed; out-of-range values fall into the untyped total only.
func frameKind(bufp *[]byte) proto.Kind {
	if len(*bufp) > 5 {
		return proto.Kind((*bufp)[5])
	}
	return proto.Kind(proto.NumKinds)
}

// dial connects to addr, retrying with exponential backoff and jitter
// until it succeeds or the transport shuts down (then it returns nil).
func (t *TCP) dial(addr string) net.Conn {
	d := net.Dialer{Timeout: t.cfg.DialTimeout, KeepAlive: t.cfg.KeepAlivePeriod}
	for attempt := 0; ; attempt++ {
		if t.ctx.Err() != nil {
			return nil
		}
		conn, err := d.DialContext(t.ctx, "tcp", addr)
		if err == nil {
			return conn
		}
		delay := t.backoff(attempt)
		t.logf("transport: dial %s: %v (retry in %v)", addr, err, delay)
		select {
		case <-t.ctx.Done():
			return nil
		case <-time.After(delay):
		}
	}
}

// backoff computes min(BackoffMax, BackoffBase<<attempt) scaled by a
// uniform jitter factor in [0.5, 1.5).
func (t *TCP) backoff(attempt int) time.Duration {
	if attempt > 20 {
		attempt = 20
	}
	d := t.cfg.BackoffBase << uint(attempt)
	if d <= 0 || d > t.cfg.BackoffMax {
		d = t.cfg.BackoffMax
	}
	t.jmu.Lock()
	f := 0.5 + t.src.Float64()
	t.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

// acceptLoop owns the listener.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	errStreak := 0
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if t.ctx.Err() != nil {
				return
			}
			t.logf("transport: accept: %v", err)
			if t.closed.Load() {
				return
			}
			// A transient hiccup clears on the next accept; a listener that
			// only ever returns errors is dead. Declare permanent failure
			// after a run of consecutive errors so the daemon can exit
			// instead of running deaf.
			errStreak++
			if errStreak >= 5 {
				t.fail(fmt.Errorf("transport: listener failed: %w", err))
				return
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		errStreak = 0
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes frames off one inbound connection in bursts of up to
// wire.DefaultBurstFrames (the receive-side mirror of the 64-frame write
// gather) and dispatches each burst to the registered handlers. Handler
// lookup is one atomic table load per burst — the hot path never takes
// t.mu.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	r := wire.NewReader(conn)
	for {
		ms, err := r.ReadBurst(wire.DefaultBurstFrames)
		if len(ms) > 0 {
			// Frames decoded ahead of a stream error still dispatch: a
			// connection torn mid-burst loses the torn frame, nothing
			// before it.
			t.dispatch(ms)
		}
		if err != nil {
			if t.ctx.Err() == nil && !errors.Is(err, io.EOF) {
				t.logf("transport: read %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
	}
}

// dispatch routes one decoded burst. Consecutive frames for the same
// target — the common shape, since a remote lane's coalesced flush lands
// back-to-back — hand over as a single sub-burst; targets without a burst
// handler fall back to per-message delivery with the usual refusal
// accounting.
func (t *TCP) dispatch(ms []*proto.Message) {
	tab := t.handlers.Load()
	for i := 0; i < len(ms); {
		to := ms[i].To
		j := i + 1
		for j < len(ms) && ms[j].To == to {
			j++
		}
		if bh := tab.burst[to]; bh != nil {
			bh(ms[i:j])
		} else if h := tab.single[to]; h != nil {
			for _, m := range ms[i:j] {
				if !h(m) {
					t.drop(m)
				}
			}
		} else {
			for _, m := range ms[i:j] {
				t.drop(m)
			}
		}
		i = j
	}
}

// Close shuts the transport down: stop accepting, close every connection,
// wake the writer goroutines and wait for them.
func (t *TCP) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.cancel()
	if t.ln != nil {
		t.ln.Close()
	}
	t.mu.Lock()
	for conn := range t.inbound {
		conn.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	// Return queued frame buffers to the pool.
	t.mu.Lock()
	for _, pc := range t.conns {
		draining := true
		for draining {
			select {
			case bufp := <-pc.queue:
				wire.PutBuf(bufp)
			default:
				draining = false
			}
		}
	}
	t.mu.Unlock()
	return nil
}

func (t *TCP) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

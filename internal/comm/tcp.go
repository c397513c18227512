package comm

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"neutronstar/internal/obs"
)

// TCPFabric moves the training protocol's messages over real loopback TCP
// connections: a full mesh of m*(m-1)/2 sockets, one writer goroutine per
// directed link, and a reader goroutine per socket delivering into the same
// tagged mailboxes the channel fabric uses. It exists to demonstrate that
// nothing in the engines depends on shared memory — the entire protocol
// (master–mirror exchange, gradient all-reduce, parameter server) serialises
// cleanly — and to measure real codec + kernel-socket costs.
//
// Timing: a link's writer holds each message until the Fabric's wire
// schedule says it is due (loopback TCP is far faster than any cluster
// fabric being modeled); set ProfileLocal to measure raw socket throughput.
type TCPFabric struct {
	m      int
	wire   *wire // nil: write at once
	tracer *obs.Tracer

	inbox []*Mailbox
	// out[i][j] is the outbound queue of link i->j.
	out    [][]chan *Message
	conns  []net.Conn
	wg     sync.WaitGroup
	closed chan struct{}
	once   sync.Once
}

// NewTCPFabric builds the full mesh over 127.0.0.1 ephemeral ports. tracer,
// when non-nil, receives a delivery stamp per decoded message.
func NewTCPFabric(m int, profile NetworkProfile, tracer *obs.Tracer) (*TCPFabric, error) {
	f := &TCPFabric{
		m: m, wire: newWire(m, profile), tracer: tracer,
		inbox:  make([]*Mailbox, m),
		out:    make([][]chan *Message, m),
		closed: make(chan struct{}),
	}
	for i := 0; i < m; i++ {
		f.inbox[i] = newMailbox()
		f.out[i] = make([]chan *Message, m)
		for j := 0; j < m; j++ {
			if i != j {
				f.out[i][j] = make(chan *Message, 4096) // senders rarely block
			}
		}
	}

	// One listener per worker; worker i dials workers j > i. Each TCP
	// connection carries both directions of one (i, j) pair.
	listeners := make([]net.Listener, m)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.shutdownListeners(listeners)
			return nil, fmt.Errorf("comm: tcp listen: %w", err)
		}
		listeners[i] = ln
	}
	type accepted struct {
		owner int
		conn  net.Conn
		peer  int
		err   error
	}
	acceptCh := make(chan accepted, m*m)
	var acceptWG sync.WaitGroup
	for j := 0; j < m; j++ {
		expect := j // worker j accepts from workers i < j
		acceptWG.Add(1)
		go func(j int) {
			defer acceptWG.Done()
			for k := 0; k < expect; k++ {
				conn, err := listeners[j].Accept()
				if err != nil {
					acceptCh <- accepted{err: err}
					return
				}
				// The dialer announces its id as the first byte.
				var idb [1]byte
				if _, err := conn.Read(idb[:]); err != nil {
					acceptCh <- accepted{err: err}
					return
				}
				acceptCh <- accepted{owner: j, conn: conn, peer: int(idb[0])}
			}
		}(j)
	}
	type link struct{ a, b int } // a < b
	connOf := make(map[link]net.Conn)
	var dialErr error
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			conn, err := net.Dial("tcp", listeners[j].Addr().String())
			if err != nil {
				dialErr = err
				break
			}
			if _, err := conn.Write([]byte{byte(i)}); err != nil {
				dialErr = err
				break
			}
			connOf[link{i, j}] = conn
		}
	}
	acceptWG.Wait()
	accepts := make(map[link]net.Conn)
	close(acceptCh)
	for a := range acceptCh {
		if a.err != nil {
			dialErr = a.err
			continue
		}
		accepts[link{a.peer, a.owner}] = a.conn
	}
	f.shutdownListeners(listeners)
	if dialErr != nil {
		for _, c := range connOf {
			c.Close()
		}
		for _, c := range accepts {
			c.Close()
		}
		return nil, fmt.Errorf("comm: tcp mesh setup: %w", dialErr)
	}

	// Start one writer per directed link and one reader per side per conn.
	// Worker i holds the dialer end of (i,j); worker j the accepted end.
	start := func(owner, peer int, conn net.Conn) {
		f.conns = append(f.conns, conn)
		f.wg.Add(2)
		go f.writeLoop(owner, peer, conn)
		go f.readLoop(owner, conn)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			start(i, j, connOf[link{i, j}])
			start(j, i, accepts[link{i, j}])
		}
	}
	return f, nil
}

func (f *TCPFabric) shutdownListeners(ls []net.Listener) {
	for _, ln := range ls {
		if ln != nil {
			ln.Close()
		}
	}
}

// NumWorkers returns the mesh size.
func (f *TCPFabric) NumWorkers() int { return f.m }

// Mailbox returns worker i's mailbox.
func (f *TCPFabric) Mailbox(i int) *Mailbox { return f.inbox[i] }

// Send routes msg: self-sends deliver directly, remote sends enqueue on the
// directed link's writer.
func (f *TCPFabric) Send(msg *Message) {
	if msg.To < 0 || msg.To >= f.m || msg.From < 0 || msg.From >= f.m {
		panic(fmt.Sprintf("comm: route %d->%d outside [0,%d)", msg.From, msg.To, f.m))
	}
	if msg.From == msg.To {
		f.inbox[msg.To].deliver(msg)
		return
	}
	recordSend(msg)
	if f.wire != nil {
		msg.sentAt = time.Now()
	}
	select {
	case f.out[msg.From][msg.To] <- msg:
	case <-f.closed:
		panic("comm: Send on closed TCP fabric")
	}
}

// writeLoop serialises link owner->peer: wait until due, encode, flush.
func (f *TCPFabric) writeLoop(owner, peer int, conn net.Conn) {
	defer f.wg.Done()
	w := bufio.NewWriterSize(conn, 1<<16)
	for {
		select {
		case msg := <-f.out[owner][peer]:
			if f.wire != nil {
				time.Sleep(time.Until(f.wire.due(msg, msg.sentAt)))
			}
			if err := encodeMessage(w, msg); err != nil {
				return // connection torn down
			}
			// Flush when the queue drains so batches coalesce.
			if len(f.out[owner][peer]) == 0 {
				if err := w.Flush(); err != nil {
					return
				}
			}
		case <-f.closed:
			return
		}
	}
}

// readLoop decodes owner's inbound stream on one connection.
func (f *TCPFabric) readLoop(owner int, conn net.Conn) {
	defer f.wg.Done()
	r := bufio.NewReaderSize(conn, 1<<16)
	for {
		msg, err := decodeMessage(r)
		if err != nil {
			return // closed or corrupt; teardown path
		}
		f.tracer.Received(owner, int64(msg.WireBytes()))
		recordDelivered(owner, msg)
		f.inbox[owner].deliver(msg)
	}
}

// Close tears the mesh down; in-flight messages are dropped.
func (f *TCPFabric) Close() {
	f.once.Do(func() {
		close(f.closed)
		for _, c := range f.conns {
			c.Close()
		}
		f.wg.Wait()
		for _, mb := range f.inbox {
			mb.close()
		}
	})
}

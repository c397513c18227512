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
// Timing: Send decides each message's due time as the Fabric's does, and a
// link's writer holds the message until then (loopback TCP is far faster
// than any cluster fabric being modeled); set ProfileLocal to measure raw
// socket throughput.
type TCPFabric struct {
	endpoints

	// out[i][j] is the outbound queue of link i->j.
	out    [][]chan outbound
	conns  []net.Conn
	wg     sync.WaitGroup
	closed chan struct{}
	once   sync.Once
}

// outbound is a message queued on a link with what Send decided for it.
type outbound struct {
	msg *Message
	schedule
}

// NewTCPFabric builds the full mesh over 127.0.0.1 ephemeral ports. tracer,
// when non-nil, receives a delivery stamp per decoded message.
func NewTCPFabric(m int, profile NetworkProfile, tracer *obs.Tracer) (*TCPFabric, error) {
	f := &TCPFabric{
		endpoints: newEndpoints(m, profile, tracer),
		out:       make([][]chan outbound, m),
		closed:    make(chan struct{}),
	}
	for i := 0; i < m; i++ {
		f.out[i] = make([]chan outbound, m)
		for j := 0; j < m; j++ {
			if i != j {
				f.out[i][j] = make(chan outbound, 4096) // senders rarely block
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

// Send decides msg's fate and enqueues it on the directed link's writer;
// self-sends deliver directly.
func (f *TCPFabric) Send(msg *Message) {
	if f.local(msg) {
		return
	}
	o := outbound{msg: msg, schedule: f.decide(msg)}
	select {
	case f.out[msg.From][msg.To] <- o:
	case <-f.closed:
		panic("comm: Send on closed TCP fabric")
	}
}

// writeLoop serialises link owner->peer: wait until due, encode, write the
// frame (twice when a duplicate follows), flush.
func (f *TCPFabric) writeLoop(owner, peer int, conn net.Conn) {
	defer f.wg.Done()
	w := bufio.NewWriterSize(conn, 1<<16)
	var frame []byte
	for {
		select {
		case o := <-f.out[owner][peer]:
			if !o.due.IsZero() {
				time.Sleep(time.Until(o.due))
			}
			frame = appendFrame(frame[:0], o.msg)
			if _, err := w.Write(frame); err != nil {
				return // connection torn down
			}
			if o.dup {
				if _, err := w.Write(frame); err != nil {
					return
				}
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
		f.receive(owner, msg, int64(msg.WireBytes()))
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

package telemetry

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// traceStream is the tracer's encoder, split across two goroutines so the
// JSON encoding runs beside the simulation instead of inside it. The
// goroutine that records the events only copies each one into the current
// chunk of a small fixed pool and hands full chunks over; the stream's
// encoder goroutine encodes the events in record order onto a buffered
// writer and returns the chunks to the pool. When every chunk waits to be
// encoded the recording goroutine waits for one, so a stalled writer slows
// the run down instead of growing memory.
type traceStream struct {
	// The recording side. full and free each have room for every chunk of
	// the pool, so neither side blocks on a send.
	cur     *chunk
	full    chan *chunk // filled chunks, in record order, for the encoder
	free    chan *chunk // encoded chunks, emptied for reuse
	done    chan error  // the close barrier's result
	stopped bool        // the encoder has exited: CloseStream ran

	// The encoder side, owned by the encoder goroutine until it stops: a
	// buffered writer plus the running element count (for comma placement),
	// the first write error and the encode buffer reused across events.
	w   *bufio.Writer
	n   int
	err error
	buf []byte
}

// The chunk pool: three chunks of 32 events each, made once per stream.
const (
	streamChunks = 3
	chunkEvents  = 32
)

// chunk is a batch of recorded events waiting to be encoded. An event keeps
// its strings, its decoded values and its columns' labels and order, which
// are immutable; its Dur, its Ints lists and its columns' values, which the
// emitter reuses, are copied into the chunk's slabs, and its arguments into
// args. The slabs grow by append to the largest batch seen and keep that
// capacity across reuse, so a warm stream records without allocating. An
// event copied before a slab grew keeps pointing into the slab's old array,
// which holds the same values.
type chunk struct {
	events []Event
	args   []Arg
	ints   []int
	floats []float64 // Durs and column values
	cols   []FloatColumn
	last   bool // the close barrier: complete the document and stop
}

func newChunk() *chunk {
	return &chunk{events: make([]Event, 0, chunkEvents)}
}

// add copies ev into the chunk.
func (c *chunk) add(ev *Event) {
	e := *ev
	if ev.Dur != nil {
		c.floats = append(c.floats, *ev.Dur)
		e.Dur = &c.floats[len(c.floats)-1]
	}
	n := len(c.args)
	for _, a := range ev.Args {
		switch a.kind {
		case kindInts:
			if len(a.ints) > 0 {
				i := len(c.ints)
				c.ints = append(c.ints, a.ints...)
				a.ints = c.ints[i:len(c.ints):len(c.ints)]
			}
		case kindColumn:
			i := len(c.floats)
			c.floats = append(c.floats, a.col.Values[:len(a.col.labels)]...)
			c.cols = append(c.cols, FloatColumn{Values: c.floats[i:len(c.floats):len(c.floats)], labels: a.col.labels, order: a.col.order})
			a.col = &c.cols[len(c.cols)-1]
		}
		c.args = append(c.args, a)
	}
	e.Args = c.args[n:len(c.args):len(c.args)]
	c.events = append(c.events, e)
}

// reset empties the chunk for reuse. The copies stay in place until the
// next events overwrite them: clearing them here would only move the
// chunk's cache lines to the encoder's core and back.
func (c *chunk) reset() {
	c.events, c.args, c.ints = c.events[:0], c.args[:0], c.ints[:0]
	c.floats, c.cols = c.floats[:0], c.cols[:0]
	c.last = false
}

// newTraceStream returns a stream over w with its chunk pool made and its
// encoder not yet started.
func newTraceStream(w io.Writer) *traceStream {
	s := &traceStream{
		w:    bufio.NewWriterSize(w, 1<<16),
		cur:  newChunk(),
		full: make(chan *chunk, streamChunks),
		free: make(chan *chunk, streamChunks),
		done: make(chan error),
	}
	for i := 1; i < streamChunks; i++ {
		s.free <- newChunk()
	}
	return s
}

// record copies ev into the current chunk, handing the chunk to the encoder
// first if it is full. Once the stream has stopped it drops ev.
func (s *traceStream) record(ev *Event) {
	if s.stopped {
		return
	}
	if len(s.cur.events) == chunkEvents {
		s.full <- s.cur
		s.cur = <-s.free
	}
	s.cur.add(ev)
}

// stop hands the current chunk to the encoder as the last one and waits
// until the encoder has encoded every event recorded so far, completed the
// document and exited.
func (s *traceStream) stop() error {
	s.cur.last = true
	s.full <- s.cur
	err := <-s.done
	s.cur, s.stopped = nil, true
	return err
}

// encode is the stream's encoder goroutine: it encodes each handed-over
// chunk and returns it to the pool, until the last one, which it follows
// with the document suffix.
func (s *traceStream) encode() {
	for {
		c := <-s.full
		s.encodeChunk(c)
		last := c.last
		c.reset()
		s.free <- c
		if last {
			s.done <- s.close()
			return
		}
	}
}

// encodeChunk writes each event of c.
func (s *traceStream) encodeChunk(c *chunk) {
	for i := range c.events {
		s.write(&c.events[i])
	}
}

// errStreamClosed poisons a stream after CloseStream so late events are
// dropped instead of corrupting the finished document.
var errStreamClosed = errors.New("telemetry: trace stream closed")

// write encodes one event onto the writer. After the stream's first error
// it drops the event.
func (s *traceStream) write(ev *Event) {
	if s.err != nil {
		return
	}
	b := s.buf[:0]
	if s.n > 0 {
		b = append(b, ',')
	}
	b, err := appendEvent(b, *ev)
	s.buf = b
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(b); err != nil {
		s.err = err
		return
	}
	s.n++
}

// close writes the document suffix and flushes, unless the stream has
// already failed, and returns the first error; nil once closed.
func (s *traceStream) close() error {
	if s.err == errStreamClosed {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	if _, err := s.w.WriteString(docSuffix); err != nil {
		s.err = errStreamClosed
		return err
	}
	err := s.w.Flush()
	s.err = errStreamClosed
	return err
}

// StreamTo writes the document prefix to w and encodes every later event to
// it as Chrome trace-event JSON ("JSON object format"), loadable in
// Perfetto / chrome://tracing. The encoding runs on a goroutine of the
// stream's own, which alone writes to w until CloseStream returns, so read
// w only after CloseStream, which writes the suffix that completes the
// document and stops the goroutine; a stream never closed keeps it parked
// until the process exits. Call StreamTo before the run: it fails
// once events have been recorded, since they are gone, and on a tracer that
// already streams.
func (t *Tracer) StreamTo(w io.Writer) error {
	if t == nil {
		return nil
	}
	if t.stream != nil {
		return errors.New("telemetry: tracer already streaming")
	}
	if t.count > 0 {
		return fmt.Errorf("telemetry: %d trace events recorded before StreamTo", t.count)
	}
	s := newTraceStream(w)
	if _, err := s.w.WriteString(docPrefix); err != nil {
		return err
	}
	go s.encode()
	t.stream = s
	return nil
}

// CloseStream completes the streamed JSON document (suffix + flush), stops
// the stream's encoder goroutine, and returns the first error encountered
// anywhere in the stream's lifetime. Events recorded after CloseStream are
// dropped. No-op without a stream.
func (t *Tracer) CloseStream() error {
	if t == nil || t.stream == nil {
		return nil
	}
	if s := t.stream; !s.stopped {
		return s.stop()
	}
	return t.stream.close()
}

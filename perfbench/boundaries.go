package main

import (
	"context"
	"strings"
	"sync/atomic"
	"time"

	"jackpine/internal/driver"
	"jackpine/internal/storage"
)

// This file holds the boundaries the benchmark owns: every span and
// every injected delay sits in one of these wrappers, around a call into
// the program, never inside it.

// execSlot publishes the engine.exec span currently open on one engine,
// so the page store beneath that engine can parent its spans to it.
type execSlot struct{ cur atomic.Int64 }

// timingStore wraps the PageStore an in-memory engine is opened with
// (engine.WithStore). It counts and times page reads and writes; the
// self-test injects a fixed delay into ReadPage.
type timingStore struct {
	storage.PageStore
	tr        *tracer
	slot      *execSlot
	readDelay time.Duration

	reads, writes atomic.Int64
	readNs        atomic.Int64
}

func (s *timingStore) ReadPage(id uint32, buf []byte) error {
	sp := s.tr.begin("storage.read", s.slot.cur.Load())
	t0 := time.Now()
	if s.readDelay > 0 {
		time.Sleep(s.readDelay)
	}
	err := s.PageStore.ReadPage(id, buf)
	s.readNs.Add(int64(time.Since(t0)))
	s.reads.Add(1)
	sp.end()
	return err
}

func (s *timingStore) WritePage(id uint32, buf []byte) error {
	sp := s.tr.begin("storage.write", s.slot.cur.Load())
	err := s.PageStore.WritePage(id, buf)
	s.writes.Add(1)
	sp.end()
	return err
}

// timingExecer is the tiger.Execer the loader runs through. It splits
// load time into bulk INSERTs and CREATE INDEX statements.
type timingExecer struct {
	exec          func(q string) error
	insert, index time.Duration
}

func (x *timingExecer) Exec(q string) error {
	t0 := time.Now()
	err := x.exec(q)
	d := time.Since(t0)
	if strings.Contains(q, " INDEX ") {
		x.index += d
	} else {
		x.insert += d
	}
	return err
}

// shardConnector wraps one shard of the cluster. Each statement the
// router sends to the shard is a cluster.shard span (parented to the
// client statement in flight) around an engine.exec span; the self-test
// injects a delay between the two, that is, in the cluster layer.
type shardConnector struct {
	inner driver.Connector
	tr    *tracer
	slot  *execSlot
	delay time.Duration
}

func (c *shardConnector) Name() string { return c.inner.Name() }

func (c *shardConnector) Connect() (driver.Conn, error) {
	cn, err := c.inner.Connect()
	if err != nil {
		return nil, err
	}
	return &shardConn{inner: cn, c: c}, nil
}

// shardConn forwards driver.ContextConn so the router can still cancel.
type shardConn struct {
	inner driver.Conn
	c     *shardConnector
}

func (s *shardConn) around(fn func() error) error {
	sp := s.c.tr.begin("cluster.shard", s.c.tr.curStmt.Load())
	if s.c.delay > 0 {
		time.Sleep(s.c.delay)
	}
	ex := s.c.tr.begin("engine.exec", sp.spanID())
	s.c.slot.cur.Store(ex.spanID())
	err := fn()
	ex.end()
	sp.end()
	return err
}

func (s *shardConn) Exec(q string) (n int, err error) {
	err = s.around(func() error { n, err = s.inner.Exec(q); return err })
	return n, err
}

func (s *shardConn) Query(q string) (rs *driver.ResultSet, err error) {
	err = s.around(func() error { rs, err = s.inner.Query(q); return err })
	return rs, err
}

func (s *shardConn) QueryContext(ctx context.Context, q string) (rs *driver.ResultSet, err error) {
	cc, ok := s.inner.(driver.ContextConn)
	if !ok {
		return s.Query(q)
	}
	err = s.around(func() error { rs, err = cc.QueryContext(ctx, q); return err })
	return rs, err
}

func (s *shardConn) Close() error { return s.inner.Close() }

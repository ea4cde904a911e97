package observer

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"repro/clock"
	"repro/hbfile"
)

// FollowFile tails the heartbeat file at path — ring or append-only log,
// detected automatically — surviving the file being deleted and recreated
// by a restarted producer. A plain ReaderStream holds the inode it opened:
// once the producer recreates the path, the old reader tails a dead file
// and the stream flatlines until the consumer reopens by hand. FollowFile
// stats the path on idle ticks (a recreation can only surface when the old
// file has gone quiet, so the stat costs nothing on the hot path) and,
// when the path no longer names the opened file, reopens it and
// resynchronizes — redelivering the new life's retained records exactly
// like ReaderStream resuming against a recreated file.
//
// The cursor starts after sequence number since (0 streams the retained
// history first; see ReaderStream), and poll waits — with the
// recreation-detection idle ticks they pace — run on clk's time, so a
// simulated consumer notices a delete/recreate at virtual speed (nil is the
// wall clock). The initial open must succeed; after that, transient open
// failures (the producer mid-recreation) are retried on the poll cadence
// rather than surfaced. poll <= 0 selects DefaultPollInterval. The returned
// stream implements io.Closer; Close releases the current reader.
func FollowFile(path string, poll time.Duration, since uint64, clk clock.Clock) (Stream, error) {
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	s := &followStream{path: path, poll: poll, cursor: since, clk: clk}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

// followStream wraps a PolledStream with path-level recreation detection.
type followStream struct {
	path   string
	poll   time.Duration
	cursor uint64      // carried across reopens
	clk    clock.Clock // nil = wall clock

	fs     *PolledStream // nil between a failed reopen and the next retry
	closer io.Closer
	info   os.FileInfo // identity of the opened file, for os.SameFile
	pool   recycler    // every fs decodes into it, so Recycle never touches fs
}

// Recycle hands a delivered batch's record slice back for reuse by the
// next Next (the BatchRecycler hook; see heartbeatStream.Recycle).
func (s *followStream) Recycle(b Batch) { s.pool.put(b.Records) }

// followedFile is what either hbfile reader variant offers a followStream.
type followedFile interface {
	PolledReader
	Stat() (os.FileInfo, error)
	Close() error
}

// open (re)opens the path, detecting the variant, and positions the new
// reader at the carried cursor. The resynchronization against a shorter
// new life happens inside PolledStream.step (head < cursor → resync to 0).
func (s *followStream) open() error {
	var r followedFile
	if ring, err := hbfile.Open(s.path); err == nil {
		r = ring
	} else {
		log, err := hbfile.OpenLog(s.path)
		if err != nil {
			return fmt.Errorf("observer: follow %s: %w", s.path, err)
		}
		r = log
	}
	info, err := r.Stat()
	if err != nil {
		r.Close()
		return err
	}
	fs := ReaderStream(r, s.poll, s.cursor, s.clk)
	fs.pool = &s.pool
	s.fs, s.closer, s.info = fs, r, info
	return nil
}

// restart drops the current reader after a detected recreation and resets
// the cursor to zero: the inode change proves the path is a new life whose
// sequence space restarted, so the whole retained history of the successor
// is due — a bare cursor carried over would silently skip any new-life
// records numbered at or below it (the cursor-only resync in PolledStream
// can only catch the head falling BELOW the cursor; the stat gives this
// stream strictly more information, so it uses it).
func (s *followStream) restart() {
	if s.closer != nil {
		s.closer.Close()
	}
	s.fs, s.closer, s.info = nil, nil, nil
	s.cursor = 0
}

// recreated reports whether the path no longer names the opened file. A
// missing path is not a recreation: the old reader keeps draining the
// deleted-but-open inode until a successor file appears.
func (s *followStream) recreated() bool {
	if s.info == nil {
		return false
	}
	fi, err := os.Stat(s.path)
	if err != nil {
		return false
	}
	return !os.SameFile(s.info, fi)
}

func (s *followStream) Next(ctx context.Context) (Batch, error) {
	for {
		if s.fs == nil {
			// A previous reopen failed (producer mid-recreation): retry on
			// the poll cadence; the path healing is the only way forward.
			if err := s.open(); err != nil {
				if werr := waitPoll(ctx, s.clk, s.poll); werr != nil {
					return Batch{}, werr
				}
				continue
			}
		}
		b, ok, err := s.fs.step()
		if err != nil {
			// A read error from a file that was recreated under us (e.g.
			// truncated below the old offsets) heals by reopening; any
			// other failure is the caller's to see.
			if s.recreated() {
				s.restart()
				continue
			}
			return Batch{}, err
		}
		if ok {
			s.cursor = s.fs.cursor
			return b, nil
		}
		// Idle tick: the one moment a recreation can be outstanding —
		// records already drained from the old inode, nothing new coming.
		if s.recreated() {
			s.restart()
			continue
		}
		if err := waitPoll(ctx, s.clk, s.poll); err != nil {
			return Batch{}, err
		}
	}
}

// Close releases the underlying reader.
func (s *followStream) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

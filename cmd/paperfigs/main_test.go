package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fullDisk accepts room bytes and refuses the rest, and can refuse the
// close as well.
type fullDisk struct {
	room     int
	closeErr error
	closed   bool
}

var errNoSpace = errors.New("no space left on device")

func (d *fullDisk) Write(p []byte) (int, error) {
	if len(p) > d.room {
		n := d.room
		d.room = 0
		return n, errNoSpace
	}
	d.room -= len(p)
	return len(p), nil
}

func (d *fullDisk) Close() error {
	d.closed = true
	return d.closeErr
}

// TestRenderIntoReportsAFullDisk fills an output of 10 000 bytes whose
// render checks none of its writes: wherever the disk runs out — in a
// write render makes past the buffer, in the flush, in the close — the
// error comes back, and the file is closed all the same.
func TestRenderIntoReportsAFullDisk(t *testing.T) {
	render := func(w io.Writer) error {
		for i := 0; i < 1000; i++ {
			fmt.Fprint(w, "0123456789")
		}
		return nil
	}
	for _, room := range []int{0, 100, 4096, 9_999} {
		d := &fullDisk{room: room}
		if err := renderInto(d, render); !errors.Is(err, errNoSpace) {
			t.Errorf("a disk with room for %d bytes of 10000: error %v", room, err)
		}
		if !d.closed {
			t.Errorf("room for %d bytes: the file was left open", room)
		}
	}
	if err := renderInto(&fullDisk{room: 10_000, closeErr: errNoSpace}, render); !errors.Is(err, errNoSpace) {
		t.Errorf("a refused close: error %v", err)
	}
	if err := renderInto(&fullDisk{room: 10_000}, render); err != nil {
		t.Errorf("a disk with room for it all: %v", err)
	}
	boom := errors.New("nothing to draw")
	if err := renderInto(&fullDisk{}, func(io.Writer) error { return boom }); err != boom {
		t.Errorf("render's own error came back as %v", err)
	}
}

// TestRunNamesTheFileTheDiskRefused makes fig4.csv a link to /dev/full,
// where every write fails as on a full disk: the run must fail and say
// which file, not leave an empty one behind a zero exit.
func TestRunNamesTheFileTheDiskRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep skipped in -short")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full here")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "fig4.csv")); err != nil {
		t.Skip(err)
	}
	err := run("4", 30_000, 30_000, dir)
	if err == nil || !strings.Contains(err.Error(), "fig4.csv") {
		t.Errorf("fig4.csv on a full disk: error %v, want one naming the file", err)
	}
}

// TestRunFig5 exercises the cheapest figure path (no simulation) plus
// the flag plumbing.
func TestRunFig5(t *testing.T) {
	if err := run("5", 10_000, 10_000, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunFig4WithOutput runs one real (tiny) figure sweep and checks the
// CSV lands in the output directory.
func TestRunFig4WithOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep skipped in -short")
	}
	dir := t.TempDir()
	if err := run("4", 30_000, 30_000, dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("fig4.csv empty")
	}
}

package hbshm_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/hbshm"
)

// region builds a region of size bytes whose header is valid, claims
// capacity slots and has published seq 1; offsets are the layout the
// package doc describes.
func region(size int, capacity uint64) []byte {
	mem := make([]byte, size)
	copy(mem, hbshm.Magic)
	binary.LittleEndian.PutUint32(mem[8:], hbshm.Version)
	binary.LittleEndian.PutUint32(mem[12:], hbshm.RecordSize)
	binary.LittleEndian.PutUint64(mem[16:], capacity)
	binary.LittleEndian.PutUint64(mem[24:], 10) // window
	binary.LittleEndian.PutUint64(mem[32:], 1)  // head
	return mem
}

// Mapping arbitrary bytes as a shared-memory region must fail cleanly or
// yield a reader whose every read is well-behaved: observers map regions
// owned by other processes. Seeds: a 128-byte region claiming 2^58 and
// 2^59 slots (capacity × RecordSize wraps past the size check), and a
// one-slot region whose target version word was left odd by a writer that
// died mid-update.
func FuzzOpenArbitraryBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(hbshm.Magic))
	f.Add(make([]byte, hbshm.HeaderSize))
	f.Add(region(hbshm.HeaderSize, 1<<58))
	f.Add(region(hbshm.HeaderSize, 1<<59))
	odd := region(hbshm.HeaderSize+hbshm.RecordSize, 1)
	binary.LittleEndian.PutUint64(odd[48:], 3)  // target version, odd for good
	binary.LittleEndian.PutUint64(odd[128:], 1) // slot 0 holds seq 1
	f.Add(odd)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.shm")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := hbshm.Open(path)
		if err != nil {
			return
		}
		defer r.Close()
		if recs, cur, err := r.ReadSinceInto(0, 0, nil); err == nil {
			for _, rec := range recs {
				if rec.Seq == 0 || rec.Seq > cur {
					t.Fatalf("ReadSinceInto delivered seq %d under cursor %d", rec.Seq, cur)
				}
			}
		}
		_, _, _, _ = r.Target()
		_, _, _ = r.Rate(0)
	})
}

//go:build !race

package hbfile

// raceEnabled reports whether the race detector is compiled in. Under it,
// reads into stack buffers heap-allocate, so TestReadSinceIntoReusesBuffer
// skips its allocation count, which would not be the reader's own.
const raceEnabled = false

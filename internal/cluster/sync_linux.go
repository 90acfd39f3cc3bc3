//go:build linux

package cluster

import (
	"errors"
	"os"
	"syscall"
)

// datasync flushes f's data (and any metadata needed to read it back,
// e.g. file size) to the medium via fdatasync. The page store's records
// are pure appends and in-place overwrites — no rename, no permission or
// timestamp dependence — so skipping the inode timestamp flush that a
// full fsync adds is free durability-wise and measurably cheaper on the
// evictor hot path, where the fsync stream dominates CPU.
func datasync(f *os.File) error {
	sc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	cerr := sc.Control(func(fd uintptr) {
		for {
			serr = syscall.Fdatasync(int(fd))
			if !errors.Is(serr, syscall.EINTR) {
				return
			}
		}
	})
	if cerr != nil {
		return cerr
	}
	if serr != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: serr}
	}
	return nil
}

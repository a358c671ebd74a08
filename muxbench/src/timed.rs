//! A timing decorator for a native file system.
//!
//! The traced run wraps each tier's `Arc<dyn FileSystem>` in a [`TimedFs`]
//! before handing it to `Mux::add_tier`, so every call Mux makes into a
//! native file system opens a span of that file system's layer. Every
//! `tvfs::FileSystem` method is forwarded, the defaulted `root_ino`
//! included: the traced and untraced runs must produce identical
//! virtual-plane results, which the benchmark checks.
//!
//! While armed (the traced timed phase), a call that cannot be attributed
//! to an open client op — one made on another thread, or on the client
//! thread between ops — is counted as stray. Self times cover only the
//! calls made inside client ops, so the benchmark requires this count to
//! be 0.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tvfs::{DirEntry, FileAttr, FileSystem, FileType, InodeNo, SetAttr, StatFs, VfsResult};

use crate::span;

/// Forwards every call to `inner`, inside a span named after `inner`.
pub struct TimedFs {
    inner: Arc<dyn FileSystem>,
    layer: &'static str,
    /// Native inode whose written bytes are counted (the metafile intent
    /// log), or `u64::MAX` for none.
    watched: AtomicU64,
    watched_bytes: AtomicU64,
    armed: AtomicBool,
    stray: AtomicU64,
}

impl TimedFs {
    /// Wraps `inner`; spans are named `layer`.
    pub fn new(inner: Arc<dyn FileSystem>, layer: &'static str) -> Self {
        TimedFs {
            inner,
            layer,
            watched: AtomicU64::new(u64::MAX),
            watched_bytes: AtomicU64::new(0),
            armed: AtomicBool::new(false),
            stray: AtomicU64::new(0),
        }
    }

    /// Starts (`true`) or stops counting stray calls.
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::Relaxed);
    }

    /// Calls made while armed that no client op's span could hold.
    pub fn stray_calls(&self) -> u64 {
        self.stray.load(Ordering::Relaxed)
    }

    fn span(&self) -> span::Guard {
        let g = span::enter(self.layer);
        if !g.is_recording() && self.armed.load(Ordering::Relaxed) {
            self.stray.fetch_add(1, Ordering::Relaxed);
        }
        g
    }

    /// Starts counting the bytes written to native inode `ino`.
    pub fn watch(&self, ino: InodeNo) {
        self.watched.store(ino, Ordering::Relaxed);
        self.watched_bytes.store(0, Ordering::Relaxed);
    }

    /// Bytes written to the watched inode since [`TimedFs::watch`].
    pub fn watched_bytes(&self) -> u64 {
        self.watched_bytes.load(Ordering::Relaxed)
    }
}

impl FileSystem for TimedFs {
    fn fs_name(&self) -> &str {
        self.inner.fs_name()
    }

    fn root_ino(&self) -> InodeNo {
        let _s = self.span();
        self.inner.root_ino()
    }

    fn lookup(&self, parent: InodeNo, name: &str) -> VfsResult<FileAttr> {
        let _s = self.span();
        self.inner.lookup(parent, name)
    }

    fn getattr(&self, ino: InodeNo) -> VfsResult<FileAttr> {
        let _s = self.span();
        self.inner.getattr(ino)
    }

    fn setattr(&self, ino: InodeNo, set: &SetAttr) -> VfsResult<FileAttr> {
        let _s = self.span();
        self.inner.setattr(ino, set)
    }

    fn create(
        &self,
        parent: InodeNo,
        name: &str,
        kind: FileType,
        mode: u32,
    ) -> VfsResult<FileAttr> {
        let _s = self.span();
        self.inner.create(parent, name, kind, mode)
    }

    fn unlink(&self, parent: InodeNo, name: &str) -> VfsResult<()> {
        let _s = self.span();
        self.inner.unlink(parent, name)
    }

    fn rename(
        &self,
        parent: InodeNo,
        name: &str,
        new_parent: InodeNo,
        new_name: &str,
    ) -> VfsResult<()> {
        let _s = self.span();
        self.inner.rename(parent, name, new_parent, new_name)
    }

    fn readdir(&self, ino: InodeNo) -> VfsResult<Vec<DirEntry>> {
        let _s = self.span();
        self.inner.readdir(ino)
    }

    fn read(&self, ino: InodeNo, off: u64, buf: &mut [u8]) -> VfsResult<usize> {
        let _s = self.span();
        self.inner.read(ino, off, buf)
    }

    fn write(&self, ino: InodeNo, off: u64, data: &[u8]) -> VfsResult<usize> {
        let _s = self.span();
        let r = self.inner.write(ino, off, data);
        if let Ok(n) = r {
            if ino == self.watched.load(Ordering::Relaxed) {
                self.watched_bytes.fetch_add(n as u64, Ordering::Relaxed);
            }
        }
        r
    }

    fn punch_hole(&self, ino: InodeNo, off: u64, len: u64) -> VfsResult<()> {
        let _s = self.span();
        self.inner.punch_hole(ino, off, len)
    }

    fn next_data(&self, ino: InodeNo, off: u64) -> VfsResult<Option<(u64, u64)>> {
        let _s = self.span();
        self.inner.next_data(ino, off)
    }

    fn fsync(&self, ino: InodeNo) -> VfsResult<()> {
        let _s = self.span();
        self.inner.fsync(ino)
    }

    fn sync(&self) -> VfsResult<()> {
        let _s = self.span();
        self.inner.sync()
    }

    fn statfs(&self) -> VfsResult<StatFs> {
        let _s = self.span();
        self.inner.statfs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use novafs::{NovaFs, NovaOptions};
    use simdev::{pmem, Device, DeviceConfig, VirtualClock};

    fn timed_nova() -> Arc<TimedFs> {
        let dev = Device::new(
            DeviceConfig {
                profile: pmem(),
                capacity: 8 << 20,
                track_durability: false,
            },
            VirtualClock::new(),
        );
        let nova = NovaFs::format(dev, NovaOptions::default()).unwrap();
        Arc::new(TimedFs::new(Arc::new(nova), "novafs"))
    }

    #[test]
    fn calls_outside_a_client_op_are_counted_as_stray() {
        let fs = timed_nova();
        fs.arm(true);
        span::start();
        // Inside a client op: recorded, not stray.
        let root = span::root();
        fs.statfs().unwrap();
        drop(root);
        span::finish_op("stat");
        assert_eq!(fs.stray_calls(), 0);
        // On the client thread between ops, and on another thread.
        fs.statfs().unwrap();
        let other = fs.clone();
        std::thread::spawn(move || other.statfs().unwrap())
            .join()
            .unwrap();
        let rec = span::stop();
        assert_eq!(fs.stray_calls(), 2);
        assert_eq!(rec.1["novafs"], 1);
        // Disarmed: nothing is counted.
        fs.arm(false);
        fs.statfs().unwrap();
        assert_eq!(fs.stray_calls(), 2);
    }
}

//! Host-contention probe.
//!
//! The development VM shares its cores with other tenants, and how busy
//! they are drifts over minutes: the same run of identical work reads up
//! to 40% slower one run than the next (README.md). A probe kernel, timed
//! between windows, reads that drift independently of the code under test:
//! a small bytecode interpreter whose dispatch over unpredictable indirect
//! branches slows under contention the way the emulator's dispatch loop
//! does (a memory-latency probe did not follow the drift at all).
//!
//! The kernel is this file's own code: no change to EMBSAN moves it.

use std::time::{Duration, Instant};

use crate::stats::{median, mix};

/// Interpreter steps per sample: about 1 ms on the development VM.
const STEPS: usize = 100_000;
/// Steps run untimed before each sample, so the kernel's code, tables
/// and branch history are warm whatever ran before it.
const WARM_STEPS: usize = 20_000;
/// At most one sample per this much run time (about 2% of the run).
const CADENCE: Duration = Duration::from_millis(50);
const CODE_LEN: usize = 1 << 18;
const DATA_LEN: usize = 1 << 16;

/// Samples host contention: each sample times the kernel on `threads`
/// threads at once (the calling thread and `threads - 1` others, so a
/// two-thread workload's both vCPUs are read) and takes the mean.
#[derive(Debug)]
pub struct Probe {
    code: Vec<u8>,
    /// One data array per thread.
    data: Vec<Vec<u64>>,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new(1)
    }
}

impl Probe {
    pub fn new(threads: usize) -> Probe {
        let code = (0..CODE_LEN as u64).map(|i| (mix(0x5EED, i) >> 59) as u8).collect();
        let data = vec![vec![0; DATA_LEN]; threads.max(1)];
        Probe { code, data, samples: Vec::new(), last: None }
    }

    /// Takes a sample if [`CADENCE`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|last| last.elapsed() < CADENCE) {
            return;
        }
        let code = &self.code;
        let (own, others) = self.data.split_first_mut().expect("at least one thread");
        let total = std::thread::scope(|scope| {
            let handles: Vec<_> =
                others.iter_mut().map(|data| scope.spawn(|| timed(code, data))).collect();
            let mine = timed(code, own);
            handles.into_iter().map(|h| h.join().expect("probe thread panicked")).sum::<f64>()
                + mine
        });
        self.samples.push(total / self.data.len() as f64);
        self.last = Some(Instant::now());
    }

    /// Median sample time in seconds (`None` before the first sample).
    pub fn median(&self) -> Option<f64> {
        median(&self.samples)
    }
}

/// Runs the kernel warm, then times [`STEPS`] of it.
fn timed(code: &[u8], data: &mut [u64]) -> f64 {
    std::hint::black_box(kernel(code, data, WARM_STEPS));
    let start = Instant::now();
    std::hint::black_box(kernel(code, data, STEPS));
    start.elapsed().as_secs_f64()
}

/// The interpreter: 32 opcodes over eight registers and a 512 KiB data
/// array, the next opcode chosen by a register, so neither the dispatch
/// branch nor the path through the code is predictable.
fn kernel(code: &[u8], data: &mut [u64], steps: usize) -> u64 {
    let mut regs = [1u64; 8];
    let mut pc = 0usize;
    for _ in 0..steps {
        let op = code[pc];
        pc = (pc + 1 + (regs[0] as usize & 7)) & (CODE_LEN - 1);
        match op {
            0 => regs[1] = regs[1].wrapping_add(regs[2]),
            1 => regs[2] ^= regs[3] >> 3,
            2 => regs[3] = regs[3].wrapping_mul(31),
            3 => regs[0] = regs[0].wrapping_add(1),
            4 => data[regs[1] as usize & (DATA_LEN - 1)] = regs[2],
            5 => regs[4] = data[regs[3] as usize & (DATA_LEN - 1)],
            6 => regs[5] = regs[5].rotate_left(7) ^ regs[4],
            7 => regs[6] = regs[6].wrapping_sub(regs[5]),
            8..=15 => {
                regs[usize::from(op & 7)] = regs[usize::from((op + 1) & 7)].wrapping_add(op.into())
            }
            _ => regs[7] = regs[7].wrapping_add(regs[usize::from(op & 7)]),
        }
    }
    regs.iter().fold(0, |a, b| a ^ b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_respect_the_cadence() {
        for threads in [1, 2] {
            let mut probe = Probe::new(threads);
            assert_eq!(probe.median(), None);
            probe.tick();
            probe.tick();
            assert_eq!(probe.samples.len(), 1);
            assert!(probe.median().unwrap() > 0.0);
        }
    }

    #[test]
    fn kernel_is_deterministic() {
        let probe = Probe::new(1);
        let (mut a, mut b) = (vec![0; DATA_LEN], vec![0; DATA_LEN]);
        assert_eq!(kernel(&probe.code, &mut a, 5_000), kernel(&probe.code, &mut b, 5_000));
        assert_eq!(a, b);
        assert!(a.iter().any(|&v| v != 0), "the kernel writes its data array");
    }
}

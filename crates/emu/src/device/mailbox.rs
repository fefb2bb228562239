//! Host↔guest mailbox device.
//!
//! This is the channel through which fuzzer executor tasks in the guest
//! kernels receive serialized test programs from the host (the role played by
//! Syzkaller's executor pipe / Tardis's injection channel in the paper) and
//! send back per-call results.

/// Mailbox register offsets.
const STATUS: u32 = 0x0;
const LEN: u32 = 0x4;
const NEXT: u32 = 0x8;
const RESULT: u32 = 0xC;

/// Program-injection mailbox.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Mailbox {
    program: Vec<u8>,
    cursor: usize,
    results: Vec<u8>,
    /// Calls the loaded program declares (its header byte) while the host
    /// awaits their results; `None` during boot and once results are taken.
    awaited: Option<usize>,
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub fn new() -> Mailbox {
        Mailbox::default()
    }

    /// Host side: loads a program for the guest executor, resetting the read
    /// cursor and clearing previous results. Arms [`Mailbox::answered`]
    /// with the call count from the program's header byte.
    pub fn host_load(&mut self, program: &[u8]) {
        self.program = program.to_vec();
        self.cursor = 0;
        self.results.clear();
        self.awaited = Some(program.first().map_or(0, |&calls| usize::from(calls)));
    }

    /// Host side: takes the result bytes written by the guest so far and
    /// disarms [`Mailbox::answered`].
    pub fn host_take_results(&mut self) -> Vec<u8> {
        self.awaited = None;
        std::mem::take(&mut self.results)
    }

    /// Whether a loaded program has been answered: the executor has written
    /// one result byte per declared call. False while no program is loaded
    /// (boot) and after the host took the results.
    pub fn answered(&self) -> bool {
        self.awaited.is_some_and(|calls| self.results.len() >= calls)
    }

    /// Host side: whether the guest has consumed the entire program.
    pub fn is_drained(&self) -> bool {
        self.cursor >= self.program.len()
    }

    pub(crate) fn read(&mut self, offset: u32) -> u32 {
        match offset {
            STATUS => u32::from(self.cursor < self.program.len()),
            LEN => self.program.len() as u32,
            NEXT => {
                let byte = self.program.get(self.cursor).copied().unwrap_or(0);
                self.cursor = (self.cursor + 1).min(self.program.len());
                u32::from(byte)
            }
            _ => 0,
        }
    }

    pub(crate) fn write(&mut self, offset: u32, value: u32) {
        if offset == RESULT {
            self.results.push(value as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guest_reads_program_byte_by_byte() {
        let mut mailbox = Mailbox::new();
        mailbox.host_load(&[1, 2, 3]);
        assert_eq!(mailbox.read(LEN), 3);
        assert_eq!(mailbox.read(STATUS), 1);
        assert_eq!(mailbox.read(NEXT), 1);
        assert_eq!(mailbox.read(NEXT), 2);
        assert_eq!(mailbox.read(NEXT), 3);
        assert_eq!(mailbox.read(STATUS), 0);
        assert!(mailbox.is_drained());
        // Reads past the end are zero, not panics.
        assert_eq!(mailbox.read(NEXT), 0);
    }

    #[test]
    fn guest_writes_results() {
        let mut mailbox = Mailbox::new();
        mailbox.write(RESULT, 0xAB);
        mailbox.write(RESULT, 0xCD);
        assert_eq!(mailbox.host_take_results(), vec![0xAB, 0xCD]);
        assert!(mailbox.host_take_results().is_empty());
    }

    #[test]
    fn reload_resets_cursor_and_results() {
        let mut mailbox = Mailbox::new();
        mailbox.host_load(&[9]);
        assert_eq!(mailbox.read(NEXT), 9);
        mailbox.write(RESULT, 1);
        mailbox.host_load(&[7]);
        assert_eq!(mailbox.read(NEXT), 7);
        assert!(mailbox.host_take_results().is_empty());
    }

    #[test]
    fn empty_program_is_answered_at_once() {
        let mut mailbox = Mailbox::new();
        mailbox.host_load(&[0]);
        assert!(mailbox.answered());
    }

    #[test]
    fn answered_only_after_the_last_result_byte() {
        let mut mailbox = Mailbox::new();
        // Header: two calls (the call bodies do not matter to the count).
        mailbox.host_load(&[2, 1, 0, 3, 0]);
        assert!(!mailbox.answered());
        mailbox.write(RESULT, 0);
        assert!(!mailbox.answered());
        mailbox.write(RESULT, 0);
        assert!(mailbox.answered());
    }

    #[test]
    fn taking_results_disarms_answered() {
        let mut mailbox = Mailbox::new();
        mailbox.host_load(&[1, 4, 0]);
        mailbox.write(RESULT, 9);
        assert!(mailbox.answered());
        assert_eq!(mailbox.host_take_results(), vec![9]);
        assert!(!mailbox.answered());
        // Stray writes after the take do not re-arm it.
        mailbox.write(RESULT, 1);
        assert!(!mailbox.answered());
    }

    #[test]
    fn nothing_is_answered_during_boot() {
        // Before the first `host_load` the guest may poll and write freely.
        let mut mailbox = Mailbox::new();
        assert!(!mailbox.answered());
        assert_eq!(mailbox.read(STATUS), 0);
        mailbox.write(RESULT, 5);
        assert!(!mailbox.answered());
    }
}

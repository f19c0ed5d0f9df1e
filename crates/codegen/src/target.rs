//! Code-generation target profiles.
//!
//! The paper's future work aims the generator at "several kinds of
//! microcontrollers and processors (e.g., ARM9, 8051, M68K, x86) in a
//! generative way"; each [`Target`] here is one such port point,
//! contributing the platform-specific fragments (timer programming, the
//! interrupt-handler syntax, context-switch hooks) around the shared
//! dispatcher and schedule table.

use std::fmt;

/// A code-generation target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Target {
    /// Host-runnable ISO C: the timer interrupt is replaced by a virtual
    /// time loop, so the generated program compiles with any C compiler
    /// and prints its dispatch trace — the reproduction's substitute for
    /// physical microcontrollers.
    #[default]
    PosixSim,
    /// Portable bare-metal skeleton with `ezrt_port_*` hooks left to the
    /// integrator.
    GenericBareMetal,
    /// Intel 8051 family (SDCC dialect: `__interrupt` handlers, TMOD/TH0
    /// timer-0 programming).
    I8051,
    /// 8-bit AVR (avr-gcc dialect: `ISR(TIMER1_COMPA_vect)`, CTC timer).
    Avr8,
    /// ARM9 cores (AIC-style periodic interval timer, IRQ handler).
    Arm9,
    /// Motorola 68000 family (auto-vectored level-6 timer interrupt).
    M68k,
    /// Bare-metal x86 (PIT channel 0 + PIC, IRQ0 handler stub).
    X86Bare,
}

impl Target {
    /// All supported targets, for sweeps and documentation.
    pub const ALL: [Target; 7] = [
        Target::PosixSim,
        Target::GenericBareMetal,
        Target::I8051,
        Target::Avr8,
        Target::Arm9,
        Target::M68k,
        Target::X86Bare,
    ];

    /// Short identifier used in generated file names.
    pub fn name(self) -> &'static str {
        match self {
            Target::PosixSim => "posix_sim",
            Target::GenericBareMetal => "generic",
            Target::I8051 => "i8051",
            Target::Avr8 => "avr8",
            Target::Arm9 => "arm9",
            Target::M68k => "m68k",
            Target::X86Bare => "x86",
        }
    }

    /// `#include` lines for the generated source.
    pub(crate) fn includes(self) -> &'static str {
        match self {
            Target::PosixSim => "#include <stdio.h>\n#include <stdint.h>\n#include <stdbool.h>\n",
            Target::GenericBareMetal | Target::Arm9 | Target::M68k | Target::X86Bare => {
                "#include <stdint.h>\n#include <stdbool.h>\n"
            }
            Target::I8051 => "#include <8051.h>\n#include <stdint.h>\n#include <stdbool.h>\n",
            Target::Avr8 => {
                "#include <avr/io.h>\n#include <avr/interrupt.h>\n#include <stdint.h>\n#include <stdbool.h>\n"
            }
        }
    }

    /// The timer-programming fragment: configure a periodic tick of one
    /// model time unit.
    pub(crate) fn timer_setup(self) -> &'static str {
        match self {
            Target::PosixSim => {
                "/* virtual time: the dispatch loop below advances ezrt_now directly */\n"
            }
            Target::GenericBareMetal => {
                "    ezrt_port_timer_init(EZRT_TICK_HZ); /* provided by the platform port */\n"
            }
            Target::I8051 => concat!(
                "    TMOD = (TMOD & 0xF0) | 0x01; /* timer 0, 16-bit mode */\n",
                "    TH0 = EZRT_T0_RELOAD_HI;\n",
                "    TL0 = EZRT_T0_RELOAD_LO;\n",
                "    ET0 = 1; /* enable timer-0 interrupt */\n",
                "    EA = 1;  /* global interrupt enable */\n",
                "    TR0 = 1; /* run */\n"
            ),
            Target::Avr8 => concat!(
                "    TCCR1B = (1 << WGM12) | (1 << CS11); /* CTC, /8 prescaler */\n",
                "    OCR1A = EZRT_OCR1A_TICK;\n",
                "    TIMSK1 = (1 << OCIE1A);\n",
                "    sei();\n"
            ),
            Target::Arm9 => concat!(
                "    /* periodic interval timer: one tick per time unit */\n",
                "    EZRT_PIT_MR = EZRT_PIT_PIV | EZRT_PIT_EN | EZRT_PIT_IEN;\n",
                "    ezrt_port_irq_enable(EZRT_PIT_IRQ, ezrt_timer_isr);\n"
            ),
            Target::M68k => concat!(
                "    /* 68000: timer on auto-vector level 6 */\n",
                "    *EZRT_TIMER_PRELOAD = EZRT_TICK_PRELOAD;\n",
                "    *EZRT_TIMER_CTRL = EZRT_TIMER_ENABLE | EZRT_TIMER_IRQ_EN;\n",
                "    ezrt_port_set_ipl(5); /* allow level-6 interrupts */\n"
            ),
            Target::X86Bare => concat!(
                "    /* 8253/8254 PIT channel 0, mode 2 (rate generator) */\n",
                "    ezrt_port_outb(0x43, 0x34);\n",
                "    ezrt_port_outb(0x40, EZRT_PIT_DIVISOR & 0xFF);\n",
                "    ezrt_port_outb(0x40, EZRT_PIT_DIVISOR >> 8);\n",
                "    ezrt_port_irq_unmask(0); /* IRQ0 on the master PIC */\n"
            ),
        }
    }

    /// The interrupt-handler signature wrapping the dispatcher call.
    pub(crate) fn isr_signature(self) -> &'static str {
        match self {
            Target::PosixSim
            | Target::GenericBareMetal
            | Target::Arm9
            | Target::M68k
            | Target::X86Bare => "void ezrt_timer_isr(void)",
            Target::I8051 => "void ezrt_timer_isr(void) __interrupt(1)",
            Target::Avr8 => "ISR(TIMER1_COMPA_vect)",
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_targets_have_distinct_names() {
        let mut names: Vec<_> = Target::ALL.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Target::ALL.len());
    }

    #[test]
    fn platform_fragments_are_plausible() {
        assert!(Target::I8051.timer_setup().contains("TMOD"));
        assert!(Target::Avr8.isr_signature().contains("TIMER1_COMPA_vect"));
        assert!(Target::I8051.isr_signature().contains("__interrupt"));
        assert!(Target::Avr8.includes().contains("avr/interrupt.h"));
        assert!(Target::PosixSim.includes().contains("stdio.h"));
        assert!(Target::M68k.timer_setup().contains("auto-vector level 6"));
        assert!(Target::X86Bare.timer_setup().contains("0x43"));
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Target::Arm9.to_string(), "arm9");
    }
}

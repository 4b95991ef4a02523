//! The stock kernels of `fpgatest::workloads`, with seeded inputs and the
//! expected outputs of their hand-written host references — never of the
//! golden interpreter, which runs the compiler's own TAC.

use fpgafuzz::rng::Rng;
use fpgatest::stimulus::Stimulus;
use fpgatest::workloads;
use nenya::interp::MemImage;
use nenya::CompileOptions;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// The two-pass integer FDCT over `size` pixels.
    Fdct,
    /// The Hamming(7,4) decoder over `size` codewords.
    Hamming,
    /// Bubble sort of `size` words.
    Sort,
    /// A `size` x `size` matrix multiply.
    Matmul,
}

/// One compiled-to-be stock design.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub name: String,
    pub kind: Kind,
    pub size: usize,
    pub source: String,
    pub compile: CompileOptions,
}

/// One seeded input of a kernel and the output its reference expects.
#[derive(Debug, Clone)]
pub struct KernelInput {
    pub stimuli: Vec<(String, Stimulus)>,
    pub expected: Vec<i64>,
}

impl Kernel {
    pub fn new(kind: Kind, size: usize, partitions: usize) -> Kernel {
        let (source, width) = match kind {
            // The FDCT reference wraps at 32 bits.
            Kind::Fdct => (workloads::fdct_source(size), 32),
            Kind::Hamming => (workloads::hamming_source(size), 16),
            Kind::Sort => (workloads::sort_source(size), 16),
            Kind::Matmul => (workloads::matmul_source(size), 16),
        };
        let base = match kind {
            Kind::Fdct => "fdct",
            Kind::Hamming => "hamming",
            Kind::Sort => "sort",
            Kind::Matmul => "matmul",
        };
        Kernel {
            name: format!("{base}{size}_p{partitions}"),
            kind,
            size,
            source,
            compile: CompileOptions {
                width,
                partitions,
                ..CompileOptions::default()
            },
        }
    }

    /// The memory the reference output is compared against.
    pub fn output_mem(&self) -> &'static str {
        match self.kind {
            Kind::Fdct => "out",
            Kind::Hamming | Kind::Sort => "data",
            Kind::Matmul => "c",
        }
    }

    /// A seeded input and its expected output.
    pub fn input(&self, rng: &mut Rng) -> KernelInput {
        let n = self.size;
        match self.kind {
            Kind::Fdct => {
                let image: Vec<i64> = (0..n).map(|_| rng.range_i64(0, 255)).collect();
                KernelInput {
                    expected: workloads::fdct_reference(&image),
                    stimuli: vec![("img".to_string(), Stimulus::from_values(image))],
                }
            }
            Kind::Hamming => {
                let nibbles: Vec<i64> = (0..n).map(|_| rng.range_i64(0, 15)).collect();
                let code = nibbles.iter().map(|&d| {
                    let mut w = workloads::hamming_encode(d as u8);
                    // A single flipped bit, which the decoder corrects.
                    if rng.chance(1, 3) {
                        w ^= 1 << rng.below(7);
                    }
                    i64::from(w)
                });
                KernelInput {
                    stimuli: vec![(
                        "code".to_string(),
                        Stimulus::from_values(code.collect::<Vec<_>>()),
                    )],
                    expected: nibbles,
                }
            }
            Kind::Sort => {
                let values: Vec<i64> = (0..n).map(|_| rng.range_i64(-1000, 1000)).collect();
                let mut expected = values.clone();
                expected.sort_unstable();
                KernelInput {
                    stimuli: vec![("data".to_string(), Stimulus::from_values(values))],
                    expected,
                }
            }
            Kind::Matmul => {
                let a: Vec<i64> = (0..n * n).map(|_| rng.range_i64(-8, 8)).collect();
                let b: Vec<i64> = (0..n * n).map(|_| rng.range_i64(-8, 8)).collect();
                KernelInput {
                    expected: workloads::matmul_reference(&a, &b, n),
                    stimuli: vec![
                        ("a".to_string(), Stimulus::from_values(a)),
                        ("b".to_string(), Stimulus::from_values(b)),
                    ],
                }
            }
        }
    }

    /// Checks final memories against the reference output.
    pub fn check(
        &self,
        mems: &BTreeMap<String, MemImage>,
        input: &KernelInput,
    ) -> Result<(), String> {
        let mem = self.output_mem();
        let got = mems
            .get(mem)
            .ok_or_else(|| format!("{}: no memory '{mem}' in the result", self.name))?;
        if got.len() != input.expected.len() {
            return Err(format!(
                "{}: memory '{mem}' has {} words, the reference {}",
                self.name,
                got.len(),
                input.expected.len()
            ));
        }
        match got
            .iter()
            .zip(&input.expected)
            .position(|(g, e)| *g != Some(*e))
        {
            None => Ok(()),
            Some(addr) => Err(format!(
                "{}: {mem}[{addr}] is {:?}, the reference says {}",
                self.name, got[addr], input.expected[addr]
            )),
        }
    }
}

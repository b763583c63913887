//! The HPC I/O performance expert-knowledge corpus.
//!
//! The paper builds its RAG database by surveying five years of literature
//! for "HPC I/O performance" and manually filtering to **66 key works**,
//! which are chunked, embedded, and indexed with LlamaIndex. We cannot ship
//! those copyrighted papers, so this crate provides 66 original
//! expert-knowledge documents covering the same ground: striping,
//! collective I/O, request sizing, alignment, metadata scalability, access
//! patterns, shared-file contention, caching, load balance, interface
//! choice, and tooling. Each document carries citation metadata (title,
//! venue, year) so diagnoses can reference their sources, and a set of
//! [`claims`] keys that downstream components use for grounding.

pub mod claims;

use serde::Serialize;

/// One document of the expert corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct KnowledgeDoc {
    /// Stable identifier.
    pub id: &'static str,
    /// Paper-style title.
    pub title: &'static str,
    /// Publication venue.
    pub venue: &'static str,
    /// Publication year.
    pub year: u32,
    /// Claims this document substantiates.
    pub claims: &'static [&'static str],
    /// The document body (abstract-level expert text).
    pub body: &'static str,
}

impl KnowledgeDoc {
    /// Bracketed citation string used in diagnosis reports.
    pub fn citation(&self) -> String {
        format!("[{}, {} {}]", self.title, self.venue, self.year)
    }
}

/// The full 66-document corpus.
pub fn corpus() -> &'static [KnowledgeDoc] {
    CORPUS
}

/// Find a document by id.
pub fn get(id: &str) -> Option<&'static KnowledgeDoc> {
    CORPUS.iter().find(|d| d.id == id)
}

/// Stable FNV-1a content hash over a set of documents (every field,
/// separator-delimited). Used by persistence layers to fingerprint what an
/// on-disk knowledge-index snapshot was built from.
pub fn hash_docs(docs: &[KnowledgeDoc]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // Field separator so ("ab","c") never collides with ("a","bc").
        h ^= 0x1f;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for d in docs {
        feed(d.id.as_bytes());
        feed(d.title.as_bytes());
        feed(d.venue.as_bytes());
        feed(&d.year.to_le_bytes());
        for c in d.claims {
            feed(c.as_bytes());
        }
        feed(d.body.as_bytes());
    }
    h
}

/// Content hash of the built-in corpus. Any edit to any document — body,
/// citation metadata, or claim set — changes this value, invalidating
/// index snapshots built from the previous corpus.
pub fn corpus_hash() -> u64 {
    hash_docs(CORPUS)
}

use claims::*;

const CORPUS: &[KnowledgeDoc] = &[
    // ---- Striping / server parallelism -----------------------------------
    KnowledgeDoc {
        id: "k01",
        title: "Striping Decisions for Parallel File Access",
        venue: "SC",
        year: 2021,
        claims: &[STRIPE_WIDTH_PARALLELISM, STRIPE_SIZE_TUNING],
        body: "The Lustre stripe count controls how many object storage targets (OSTs) \
               serve a file. A stripe count of 1 places every byte of the file on a single \
               OST, serialising all accesses and capping bandwidth at one server regardless \
               of how many ranks participate. Files accessed by many processes or larger \
               than a few gigabytes should be striped across many OSTs (lfs setstripe -c) \
               so that server load is spread and aggregate bandwidth scales.",
    },
    KnowledgeDoc {
        id: "k02",
        title: "Matching Stripe Size to Transfer Size on Lustre",
        venue: "CCGrid",
        year: 2022,
        claims: &[STRIPE_SIZE_TUNING, ALIGNMENT_MATTERS],
        body: "When an application issues large transfers, the stripe size should match or \
               divide evenly into the request size: 4 MB requests on the default 1 MB \
               stripe cause each request to touch four servers with extra lock traffic. \
               Setting the stripe size to the dominant transfer size (lfs setstripe -S 4M) \
               keeps each request on one OST and removes boundary crossings.",
    },
    KnowledgeDoc {
        id: "k03",
        title: "OST Load Imbalance in Production Lustre Deployments",
        venue: "IPDPS",
        year: 2023,
        claims: &[STRIPE_WIDTH_PARALLELISM],
        body: "Monitoring of production file systems shows that a small fraction of OSTs \
               frequently services a disproportionate share of traffic because jobs leave \
               the default stripe settings untouched. Server load imbalance manifests as \
               low aggregate utilisation of the available storage targets while individual \
               targets saturate; widening stripes or using progressive file layouts \
               restores balance.",
    },
    KnowledgeDoc {
        id: "k04",
        title: "A Coupon-Based Throttle-and-Reward Mechanism for Fair I/O Bandwidth",
        venue: "FAST",
        year: 2020,
        claims: &[STRIPE_WIDTH_PARALLELISM, IO_CHARACTERIZATION],
        body: "Parallel storage systems exhibit bandwidth collapse when competing \
               applications concentrate load on overlapping storage servers. Balancing \
               per-server traffic, either by scheduling or by striping files across \
               disjoint target sets, improves both fairness and aggregate efficiency.",
    },
    // ---- Collective I/O ---------------------------------------------------
    KnowledgeDoc {
        id: "k05",
        title: "Collective I/O Revisited: Aggregation on Modern Interconnects",
        venue: "IPDPS",
        year: 2022,
        claims: &[COLLECTIVE_IO_BENEFIT, SMALL_IO_AGGREGATION],
        body: "Collective MPI-IO (MPI_File_write_all and friends) designates aggregator \
               ranks that coalesce many small, possibly non-contiguous requests into a few \
               large, contiguous, stripe-aligned transfers. On shared files this routinely \
               improves write bandwidth by an order of magnitude over independent \
               operations. Applications issuing independent MPI-IO calls leave this \
               optimisation unused; enabling collective buffering (romio_cb_write) is \
               usually the single most effective shared-file fix.",
    },
    KnowledgeDoc {
        id: "k06",
        title: "Two-Phase I/O Aggregator Placement at Scale",
        venue: "Cluster",
        year: 2021,
        claims: &[COLLECTIVE_IO_BENEFIT],
        body: "Two-phase collective I/O splits a collective operation into a shuffle phase \
               and an I/O phase executed by aggregators. Aggregator counts and placement \
               should track the file's stripe count so that each aggregator owns whole \
               stripes; mismatches reintroduce lock contention. Collective reads benefit \
               symmetrically to writes when many ranks read a shared input.",
    },
    KnowledgeDoc {
        id: "k07",
        title: "Why Independent MPI-IO Underperforms on Shared Files",
        venue: "PDSW",
        year: 2023,
        claims: &[COLLECTIVE_IO_BENEFIT, SHARED_FILE_CONTENTION],
        body: "Independent MPI-IO operations on a shared file behave like uncoordinated \
               POSIX writes: each rank acquires extent locks, and interleaved access \
               patterns cause lock ping-pong between clients. Collective operations \
               serialise lock acquisition through aggregators and eliminate false sharing. \
               Darshan counters MPIIO_INDEP_WRITES versus MPIIO_COLL_WRITES expose the gap \
               directly.",
    },
    KnowledgeDoc {
        id: "k08",
        title: "Collective Buffering Hints in ROMIO: A Field Guide",
        venue: "EuroMPI",
        year: 2020,
        claims: &[COLLECTIVE_IO_BENEFIT],
        body: "ROMIO exposes collective buffering through hints: romio_cb_write, \
               romio_cb_read, cb_nodes, and cb_buffer_size. Enabling collective buffering \
               and setting cb_buffer_size to a multiple of the stripe size lets aggregators \
               emit stripe-aligned requests. Many applications disable collectives by \
               habit, inheriting severe small-request penalties.",
    },
    // ---- Small I/O ---------------------------------------------------------
    KnowledgeDoc {
        id: "k09",
        title: "The Cost of Small Requests on Parallel File Systems",
        venue: "SC",
        year: 2020,
        claims: &[SMALL_IO_AGGREGATION],
        body: "Requests below roughly 1 MB waste parallel file system bandwidth: fixed \
               per-request costs (RPC, locking, server CPU) dominate data movement. Darshan \
               access-size histograms with most operations in the sub-megabyte bins \
               indicate the application should buffer and aggregate, increase its record \
               size, or use a higher-level library that does so.",
    },
    KnowledgeDoc {
        id: "k10",
        title: "Write Aggregation Strategies for Checkpointing Codes",
        venue: "HPDC",
        year: 2022,
        claims: &[SMALL_IO_AGGREGATION, COLLECTIVE_IO_BENEFIT],
        body: "Checkpointing codes that emit many small records per rank achieve a small \
               fraction of achievable bandwidth. Buffering records into multi-megabyte \
               segments before issuing writes, or delegating aggregation to collective \
               MPI-IO or to libraries such as HDF5 with chunk caches, recovers most of the \
               lost performance.",
    },
    KnowledgeDoc {
        id: "k11",
        title: "Small, Frequent, and Slow: Request Size Pathologies in Production Traces",
        venue: "MSST",
        year: 2023,
        claims: &[SMALL_IO_AGGREGATION, IO_CHARACTERIZATION],
        body: "Analysis of a year of Darshan logs shows request size is the strongest \
               single predictor of realised bandwidth. Jobs whose read or write histograms \
               concentrate below 100 KB realise under 5 percent of peak. The fix is almost \
               always structural: aggregate in the application or switch to buffered \
               higher-level interfaces.",
    },
    KnowledgeDoc {
        id: "k12",
        title: "Buffered I/O Libraries Versus Raw POSIX for Scientific Workloads",
        venue: "TPDS",
        year: 2021,
        claims: &[SMALL_IO_AGGREGATION, MPI_VS_POSIX],
        body: "High-level libraries (HDF5, PnetCDF, ADIOS) internally buffer and align \
               data before touching the file system, converting application-level small \
               accesses into efficient large transfers. Raw POSIX leaves every pathology \
               visible to the storage stack.",
    },
    // ---- Alignment ---------------------------------------------------------
    KnowledgeDoc {
        id: "k13",
        title: "Alignment Effects in Striped File Systems",
        venue: "IPDPS",
        year: 2021,
        claims: &[ALIGNMENT_MATTERS, STRIPE_SIZE_TUNING],
        body: "A request that is not aligned to the file system's stripe or block \
               boundaries touches more servers than necessary and may trigger \
               read-modify-write cycles for partial blocks. Darshan's FILE_NOT_ALIGNED \
               counter quantifies the problem. Aligning record sizes and offsets to the \
               stripe size (or choosing a stripe size that divides the record) removes the \
               penalty; odd record sizes such as 47008 bytes are a classic offender.",
    },
    KnowledgeDoc {
        id: "k14",
        title: "Read-Modify-Write Amplification Under Unaligned Writes",
        venue: "FAST",
        year: 2022,
        claims: &[ALIGNMENT_MATTERS],
        body: "Unaligned writes force the server to read the surrounding block, merge the \
               new bytes, and write it back, tripling device traffic in the worst case. \
               Amplification grows with the fraction of boundary-crossing requests; \
               padding records to block multiples or aligning the first byte of each \
               rank's region eliminates it.",
    },
    KnowledgeDoc {
        id: "k15",
        title: "Lock Boundary Alignment for Shared-File Workloads",
        venue: "PDSW",
        year: 2021,
        claims: &[ALIGNMENT_MATTERS, SHARED_FILE_CONTENTION],
        body: "Extent locks on Lustre are granted in stripe-sized units. Writers whose \
               regions straddle stripe boundaries conflict with neighbours even when byte \
               ranges are disjoint, serialising otherwise parallel writes. Aligning each \
               rank's partition to stripe boundaries removes false conflicts.",
    },
    // ---- Metadata ----------------------------------------------------------
    KnowledgeDoc {
        id: "k16",
        title: "Metadata Scalability Limits of Parallel File Systems",
        venue: "FAST",
        year: 2023,
        claims: &[METADATA_SCALABILITY],
        body: "Metadata operations (open, stat, create, unlink) are serviced by a small \
               number of metadata servers and do not scale with OST count. Applications \
               that open thousands of files, stat in loops, or create per-rank-per-step \
               files spend more time in metadata than in data movement. Batching, caching \
               attributes, using fewer and larger files, or moving to object-style \
               interfaces relieves the bottleneck.",
    },
    KnowledgeDoc {
        id: "k17",
        title: "The File-Per-Process Trap at Exascale",
        venue: "SC",
        year: 2022,
        claims: &[METADATA_SCALABILITY, SHARED_FILE_CONTENTION],
        body: "File-per-process output avoids shared-file lock contention but creates a \
               metadata storm at scale: N creates, N opens, and directory lock pressure. \
               Past a few thousand ranks the create phase dominates. Middle grounds \
               (subfiling, one file per node, or collective shared files) bound both \
               failure modes.",
    },
    KnowledgeDoc {
        id: "k18",
        title: "Diagnosing Metadata Storms from Darshan Counters",
        venue: "HPDC",
        year: 2021,
        claims: &[METADATA_SCALABILITY, DARSHAN_METHODOLOGY],
        body: "A high ratio of F_META_TIME to total runtime, combined with large OPENS and \
               STATS counters relative to data volume, is a reliable signature of \
               metadata-bound execution. Shared-directory create workloads (as in \
               mdtest-hard) exhibit the pattern in its purest form.",
    },
    // ---- Random access ----------------------------------------------------
    KnowledgeDoc {
        id: "k19",
        title: "Sequentiality and Server-Side Prefetching",
        venue: "MSST",
        year: 2021,
        claims: &[RANDOM_VS_SEQUENTIAL],
        body: "Parallel file system servers prefetch aggressively on sequential streams. \
               Random access defeats prefetching, turns disk/SSD queues incoherent, and \
               cuts delivered bandwidth several-fold. Darshan's SEQ_READS/SEQ_WRITES \
               relative to total operations quantify sequentiality; reordering I/O, \
               sorting requests by offset, or batching random accesses into larger \
               windows restores streaming behaviour.",
    },
    KnowledgeDoc {
        id: "k20",
        title: "Request Reordering for Random Write Workloads",
        venue: "Cluster",
        year: 2022,
        claims: &[RANDOM_VS_SEQUENTIAL, SMALL_IO_AGGREGATION],
        body: "Random small writes combine the two worst behaviours on striped storage. \
               Client-side write-behind buffers that sort by file offset before flushing \
               convert random patterns into near-sequential ones, and collective I/O \
               performs this reordering across ranks.",
    },
    KnowledgeDoc {
        id: "k21",
        title: "Access Pattern Classification from Coarse Counters",
        venue: "IPDPS",
        year: 2020,
        claims: &[RANDOM_VS_SEQUENTIAL, IO_CHARACTERIZATION],
        body: "Coarse per-file counters suffice to classify access patterns: consecutive \
               and sequential operation fractions separate streaming, strided, and random \
               workloads with high accuracy, without full traces. A sequential fraction \
               below 40 percent almost always indicates a random pattern worth fixing.",
    },
    // ---- Shared file ------------------------------------------------------
    KnowledgeDoc {
        id: "k22",
        title: "Shared-File Contention: Locks, Extents, and False Sharing",
        venue: "SC",
        year: 2023,
        claims: &[SHARED_FILE_CONTENTION, COLLECTIVE_IO_BENEFIT],
        body: "When many ranks write one file, extent lock contention and false sharing on \
               stripe boundaries serialise progress. Remedies in rising order of effort: \
               align partitions to stripes, enable collective buffering so only \
               aggregators touch the file, or restructure output with subfiling. \
               Shared-file access is not inherently bad — uncoordinated shared-file \
               access is.",
    },
    KnowledgeDoc {
        id: "k23",
        title: "Single Shared File Versus File Per Process: A Decade of Measurements",
        venue: "TPDS",
        year: 2022,
        claims: &[SHARED_FILE_CONTENTION, METADATA_SCALABILITY],
        body: "Neither extreme wins universally: single shared files bottleneck on locks \
               without collectives, file-per-process bottlenecks on metadata at scale. \
               Measurements across five systems show collective shared-file I/O with \
               stripe-aligned partitions matches or beats file-per-process beyond 1024 \
               ranks.",
    },
    // ---- Repetitive reads --------------------------------------------------
    KnowledgeDoc {
        id: "k24",
        title: "Detecting and Eliminating Redundant Reads in Scientific Workflows",
        venue: "HPDC",
        year: 2023,
        claims: &[REPETITIVE_READ_CACHING],
        body: "Workflows frequently re-read the same input regions — bytes read far \
               exceeding the touched byte range in Darshan is the telltale sign. Staging \
               the data in node-local memory or burst buffers, enabling client-side \
               caching, or restructuring loops to reuse buffers removes the redundant \
               traffic entirely.",
    },
    KnowledgeDoc {
        id: "k25",
        title: "Burst Buffers as Read Caches for Iterative Analytics",
        venue: "Cluster",
        year: 2020,
        claims: &[REPETITIVE_READ_CACHING, IO_CHARACTERIZATION],
        body: "Iterative analytics that sweep the same dataset each epoch gain \
               near-linear speedups from staging the dataset into burst buffers or \
               node-local NVMe once, instead of re-reading from the parallel file system \
               every iteration.",
    },
    // ---- Rank balance ------------------------------------------------------
    KnowledgeDoc {
        id: "k26",
        title: "Stragglers in Parallel I/O: Rank-Level Load Imbalance",
        venue: "IPDPS",
        year: 2022,
        claims: &[RANK_BALANCE],
        body: "When one rank moves far more data than its peers, collective phases wait \
               on the straggler and effective bandwidth collapses to single-client speed. \
               Darshan's fastest/slowest rank bytes and rank time variance expose the \
               imbalance. Domain decomposition should spread I/O evenly; delegating \
               rank-0-funnelled I/O to parallel writes removes the classic master-writer \
               bottleneck.",
    },
    KnowledgeDoc {
        id: "k27",
        title: "Log-Assisted Straggler-Aware I/O Scheduling",
        venue: "ICPP Workshops",
        year: 2016,
        claims: &[RANK_BALANCE, IO_CHARACTERIZATION],
        body: "Server logs identify persistent straggler clients and storage targets. \
               Scheduling decisions that account for stragglers improve end-to-end I/O \
               completion times for bulk-synchronous applications where the slowest rank \
               gates progress.",
    },
    // ---- MPI vs POSIX ------------------------------------------------------
    KnowledgeDoc {
        id: "k28",
        title: "Why Multi-Process POSIX I/O Leaves Performance on the Table",
        venue: "EuroMPI",
        year: 2021,
        claims: &[MPI_VS_POSIX, COLLECTIVE_IO_BENEFIT],
        body: "Applications that run many processes but perform I/O through raw POSIX \
               forgo every coordination opportunity: no collective aggregation, no shared \
               file views, no hint-driven optimisation. At 8+ ranks, MPI-IO is expected \
               to outperform uncoordinated POSIX on shared files; a Darshan log showing \
               large POSIX volume with an absent or idle MPI-IO module flags the gap.",
    },
    KnowledgeDoc {
        id: "k29",
        title: "Interface Choice and Its Consequences in HPC I/O Stacks",
        venue: "TPDS",
        year: 2023,
        claims: &[MPI_VS_POSIX, SMALL_IO_AGGREGATION],
        body: "The interface an application chooses fixes which optimisations are \
               reachable: POSIX exposes none, MPI-IO exposes collectives and hints, \
               HDF5/PnetCDF add chunking and caching. Migrating hot I/O paths from POSIX \
               to MPI-IO is mechanical for contiguous patterns and pays off immediately \
               at scale.",
    },
    // ---- STDIO -------------------------------------------------------------
    KnowledgeDoc {
        id: "k30",
        title: "STDIO Streams in HPC Applications: Convenience with a Cost",
        venue: "PDSW",
        year: 2022,
        claims: &[STDIO_BUFFERING],
        body: "fprintf/fread streams use small libc buffers (typically 4-64 KB) and are \
               oblivious to striping and parallelism. They are fine for configuration \
               files and logs, but bulk data through STDIO serialises into small buffered \
               writes. Darshan's STDIO module volume relative to POSIX/MPI-IO reveals \
               misuse; porting bulk paths to MPI-IO or increasing stream buffers with \
               setvbuf mitigates.",
    },
    // ---- Tools & methodology ----------------------------------------------
    KnowledgeDoc {
        id: "k31",
        title: "Understanding and Improving Computational Science Storage Access Through Continuous Characterization",
        venue: "ACM TOS",
        year: 2011,
        claims: &[DARSHAN_METHODOLOGY, IO_CHARACTERIZATION],
        body: "Darshan instruments applications transparently and records bounded-size \
               per-file counters covering operation counts, access sizes, alignment, and \
               timing across POSIX, MPI-IO, and STDIO. Continuous deployment across a \
               facility yields a census of I/O behaviour and surfaces optimisation \
               candidates without developer effort.",
    },
    KnowledgeDoc {
        id: "k32",
        title: "DXT: Darshan Extended Tracing",
        venue: "Cray User Group",
        year: 2019,
        claims: &[DARSHAN_METHODOLOGY],
        body: "Darshan eXtended Tracing records each I/O operation with offset, length, \
               and timestamps, enabling fine-grained reconstruction of access patterns at \
               the cost of higher overhead. It is disabled by default; counter-level \
               analysis remains the first-line diagnostic.",
    },
    KnowledgeDoc {
        id: "k33",
        title: "Drishti: Guiding End-Users in the I/O Optimization Journey",
        venue: "PDSW",
        year: 2022,
        claims: &[DARSHAN_METHODOLOGY, IO_CHARACTERIZATION],
        body: "Drishti scans Darshan logs with a fixed set of expert triggers and emits \
               categorised issues with static recommendations. Its thresholds encode \
               facility experience (for example, flagging runs where more than 10 percent \
               of requests are under 1 MB) and it excels at quickly screening large \
               batches of logs.",
    },
    KnowledgeDoc {
        id: "k34",
        title: "IOMiner: Large-Scale Analytics Framework for Gaining Knowledge from I/O Logs",
        venue: "Cluster",
        year: 2018,
        claims: &[IO_CHARACTERIZATION],
        body: "Sweep-line analytics over facility-wide I/O logs correlate application \
               behaviour with platform conditions, identifying systemic issues such as \
               chronically overloaded storage targets and poorly striped project \
               directories.",
    },
    KnowledgeDoc {
        id: "k35",
        title: "UMAMI: A Recipe for Generating Meaningful Metrics Through Holistic I/O Performance Analysis",
        venue: "PDSW-DISCS",
        year: 2017,
        claims: &[IO_CHARACTERIZATION],
        body: "Interpreting a single job's I/O performance requires context: the same \
               bandwidth may be excellent under contention and poor on an idle system. \
               Normalising job metrics against contemporaneous platform telemetry \
               produces meaningful, comparable scores.",
    },
    KnowledgeDoc {
        id: "k36",
        title: "TOKIO on ClusterStor: Connecting Standard Tools to Enable Holistic I/O Performance Analysis",
        venue: "Cray User Group",
        year: 2018,
        claims: &[IO_CHARACTERIZATION, DARSHAN_METHODOLOGY],
        body: "Combining application-side Darshan records with server-side monitoring \
               attributes observed slowdowns to their true cause — client pathology \
               versus shared-platform contention — and avoids mis-blaming application \
               code for system weather.",
    },
    KnowledgeDoc {
        id: "k37",
        title: "Recorder 2.0: Efficient Parallel I/O Tracing and Analysis",
        venue: "IPDPSW",
        year: 2020,
        claims: &[DARSHAN_METHODOLOGY],
        body: "Recorder captures multi-level I/O traces (HDF5, MPI-IO, POSIX) with \
               per-call fidelity, enabling cross-layer attribution: a single HDF5 call \
               fanning out into thousands of small POSIX requests is immediately visible.",
    },
    KnowledgeDoc {
        id: "k38",
        title: "Enabling Agile Analysis of I/O Performance Data with PyDarshan",
        venue: "SC Workshops",
        year: 2023,
        claims: &[DARSHAN_METHODOLOGY],
        body: "PyDarshan exposes Darshan records as dataframes, letting analysts build \
               custom reductions — per-module histograms, rank heatmaps, time-window \
               summaries — without touching the binary log format.",
    },
    KnowledgeDoc {
        id: "k39",
        title: "I/O Bottleneck Detection and Tuning: Connecting the Dots Using Interactive Log Analysis",
        venue: "PDSW",
        year: 2021,
        claims: &[IO_CHARACTERIZATION, DARSHAN_METHODOLOGY],
        body: "Interactive exploration of DXT traces (DXT-Explorer) reveals spatial and \
               temporal bottlenecks — rank-0 funnelling, phase serialisation, stragglers — \
               that aggregate counters only hint at, guiding users through the tuning \
               journey step by step.",
    },
    KnowledgeDoc {
        id: "k40",
        title: "Establishing the IO-500 Benchmark",
        venue: "VI4IO White Paper",
        year: 2016,
        claims: &[IO_CHARACTERIZATION],
        body: "IO500 standardises bandwidth- and metadata-bound workloads (ior-easy, \
               ior-hard, mdtest) to characterise storage systems. ior-hard's 47008-byte \
               unaligned interleaved writes to a shared file remain a canonical stress \
               test of small, misaligned shared-file behaviour.",
    },
    // ---- Systems & platform docs -------------------------------------------
    KnowledgeDoc {
        id: "k41",
        title: "The Lustre File System Architecture",
        venue: "OpenSFS Reference",
        year: 2020,
        claims: &[STRIPE_WIDTH_PARALLELISM, STRIPE_SIZE_TUNING, METADATA_SCALABILITY],
        body: "Lustre separates metadata servers (MDS/MDT) from object storage servers \
               (OSS/OST). File data is striped RAID-0 style across OSTs according to \
               per-file layout (stripe count, stripe size, OST pool). Bandwidth scales \
               with stripe count up to client limits; metadata throughput is bounded by \
               MDS capacity.",
    },
    KnowledgeDoc {
        id: "k42",
        title: "Architecture and Design of Cray DataWarp",
        venue: "Cray User Group",
        year: 2016,
        claims: &[REPETITIVE_READ_CACHING, IO_CHARACTERIZATION],
        body: "Burst buffer tiers of NVMe close the latency gap between compute and the \
               parallel file system, absorbing checkpoint bursts and caching hot inputs. \
               Staging policies decide which datasets live in the buffer for the job's \
               lifetime.",
    },
    KnowledgeDoc {
        id: "k43",
        title: "The HDF5 Library and File Format: Chunking and Caching Internals",
        venue: "HDF Group Technical Note",
        year: 2021,
        claims: &[SMALL_IO_AGGREGATION, ALIGNMENT_MATTERS],
        body: "HDF5 chunking maps logical selections onto fixed-size chunks; the chunk \
               cache coalesces partial-chunk updates. Chunk size should be a multiple of \
               the stripe size and comparable to the transfer size, or partial-chunk \
               traffic amplifies into many small unaligned requests.",
    },
    KnowledgeDoc {
        id: "k44",
        title: "Parallel netCDF: A High-Performance Scientific I/O Interface",
        venue: "SC",
        year: 2003,
        claims: &[COLLECTIVE_IO_BENEFIT, MPI_VS_POSIX],
        body: "PnetCDF layers a self-describing array model over MPI-IO and inherits its \
               collective optimisations, letting legacy netCDF codes reach parallel \
               bandwidth without restructuring their data model.",
    },
    KnowledgeDoc {
        id: "k45",
        title: "MPI-IO Implementation Techniques: Data Sieving and Two-Phase Collectives",
        venue: "ROMIO Technical Report",
        year: 2019,
        claims: &[COLLECTIVE_IO_BENEFIT, SMALL_IO_AGGREGATION, ALIGNMENT_MATTERS],
        body: "Data sieving reads a large window and extracts scattered pieces, trading \
               extra volume for far fewer requests; two-phase collectives shuffle data to \
               aggregators that issue large aligned accesses. Both transform pathological \
               request streams into file-system-friendly ones.",
    },
    KnowledgeDoc {
        id: "k46",
        title: "GPFS Block Allocation and Byte-Range Locking Under Shared Writes",
        venue: "MSST",
        year: 2020,
        claims: &[SHARED_FILE_CONTENTION, ALIGNMENT_MATTERS],
        body: "GPFS grants byte-range tokens at block granularity; unaligned shared \
               writes provoke token revocation storms between nodes. Aligning writer \
               partitions to block boundaries sidesteps revocation entirely.",
    },
    // ---- Application studies ------------------------------------------------
    KnowledgeDoc {
        id: "k47",
        title: "AMReX: Block-Structured Adaptive Mesh Refinement for Multiphysics Applications",
        venue: "IJHPCA",
        year: 2021,
        claims: &[IO_CHARACTERIZATION, MPI_VS_POSIX],
        body: "AMReX writes plotfiles as per-level directories of binary files. Default \
               settings funnel I/O through a limited writer set using POSIX; tuning the \
               number of output files and enabling MPI-IO paths substantially changes the \
               observed pattern at scale.",
    },
    KnowledgeDoc {
        id: "k48",
        title: "I/O Characterisation of a Cosmology Checkpoint Code (HACC-IO)",
        venue: "SC",
        year: 2019,
        claims: &[SMALL_IO_AGGREGATION, SHARED_FILE_CONTENTION],
        body: "HACC's particle checkpoints write fixed-size records per rank into a \
               shared file. With independent I/O and odd record sizes the pattern is \
               small, unaligned, and contended; collective aggregation with padded \
               records restores bandwidth.",
    },
    KnowledgeDoc {
        id: "k49",
        title: "Tuning VPIC Particle Dumps on Burst-Buffer-Equipped Systems",
        venue: "Cluster",
        year: 2021,
        claims: &[SMALL_IO_AGGREGATION, RANDOM_VS_SEQUENTIAL],
        body: "VPIC's per-species particle dumps scatter small records across a shared \
               file. Sorting particles before output and batching records per cell block \
               converts the random small-write stream into sequential large writes.",
    },
    KnowledgeDoc {
        id: "k50",
        title: "OpenPMD Series Files: Chunk Layout and Collective Output",
        venue: "ISC",
        year: 2022,
        claims: &[SHARED_FILE_CONTENTION, COLLECTIVE_IO_BENEFIT, STRIPE_SIZE_TUNING],
        body: "OpenPMD stores particle-mesh series in shared container files. Default \
               small chunk sizes scatter writes; configuring chunk extents to match \
               stripe size and enabling collective backends turns the series dump into \
               aligned streaming output.",
    },
    KnowledgeDoc {
        id: "k51",
        title: "Nyx: A Massively Parallel AMR Code for Computational Cosmology",
        venue: "ApJ",
        year: 2013,
        claims: &[IO_CHARACTERIZATION, RANK_BALANCE],
        body: "Nyx restart reads concentrate grid metadata on designated ranks before \
               broadcast; at scale this concentrates both read traffic and metadata \
               operations on few ranks, an imbalance visible in per-rank byte variance.",
    },
    KnowledgeDoc {
        id: "k52",
        title: "Montage: A Grid Portal and Software Toolkit for Astronomical Image Mosaicking",
        venue: "IJCSE",
        year: 2009,
        claims: &[METADATA_SCALABILITY, SMALL_IO_AGGREGATION],
        body: "Montage pipelines process thousands of small FITS files through serial \
               tasks, producing metadata-heavy, small-access I/O profiles; consolidating \
               intermediate products into fewer container files cuts both costs.",
    },
    KnowledgeDoc {
        id: "k53",
        title: "Exascale Deep Learning for Climate Analytics: The Input Pipeline",
        venue: "SC",
        year: 2018,
        claims: &[REPETITIVE_READ_CACHING, RANDOM_VS_SEQUENTIAL],
        body: "Training epochs re-read the full dataset in randomised order; without \
               node-local caching the parallel file system sees a random re-read storm \
               every epoch. Sharding plus local shuffle buffers preserves statistical \
               randomness while restoring sequential file-system access.",
    },
    KnowledgeDoc {
        id: "k54",
        title: "The 1000 Genomes Workflow on Shared HPC Systems",
        venue: "Pegasus Case Study",
        year: 2023,
        claims: &[METADATA_SCALABILITY, STDIO_BUFFERING],
        body: "Bioinformatics workflows invoke many short-lived tools communicating \
               through small files and text streams, stressing metadata services and \
               buffered STDIO rather than bandwidth. Containerising stages and using \
               per-node scratch reduces shared-file-system pressure.",
    },
    KnowledgeDoc {
        id: "k55",
        title: "QMCPACK I/O: Ensemble Checkpointing Patterns",
        venue: "JPCM",
        year: 2018,
        claims: &[SMALL_IO_AGGREGATION, METADATA_SCALABILITY],
        body: "Ensemble quantum Monte Carlo runs emit many small per-walker checkpoints. \
               Aggregating walkers into ensemble-level HDF5 files with collective writes \
               reduces both file counts and request counts by orders of magnitude.",
    },
    // ---- Broader analysis / ML-on-logs works --------------------------------
    KnowledgeDoc {
        id: "k56",
        title: "ClusterLog: Clustering Logs for Effective Log-Based Anomaly Detection",
        venue: "FTXS",
        year: 2022,
        claims: &[IO_CHARACTERIZATION],
        body: "Clustering semantically similar log events compresses noisy system logs \
               into stable vocabularies, improving downstream anomaly detection on \
               parallel file system logs.",
    },
    KnowledgeDoc {
        id: "k57",
        title: "SentiLog: Anomaly Detection on Parallel File Systems via Log-Based Sentiment Analysis",
        venue: "HotStorage",
        year: 2021,
        claims: &[IO_CHARACTERIZATION],
        body: "Language-model sentiment over file system logs separates healthy from \
               anomalous periods without hand-built parsers, transferring across Lustre \
               and BeeGFS deployments.",
    },
    KnowledgeDoc {
        id: "k58",
        title: "DRILL: Log-Based Anomaly Detection for Large-Scale Storage Systems Using Source Code Analysis",
        venue: "IPDPS",
        year: 2023,
        claims: &[IO_CHARACTERIZATION],
        body: "Grounding log analysis in the printing source statements yields precise \
               event templates and improves anomaly localisation in storage stacks.",
    },
    KnowledgeDoc {
        id: "k59",
        title: "IOPathTune: Adaptive Online Parameter Tuning for Parallel File System I/O Paths",
        venue: "arXiv",
        year: 2023,
        claims: &[IO_CHARACTERIZATION, STRIPE_SIZE_TUNING],
        body: "Online tuning of client I/O path parameters (RPC sizes, concurrency, \
               checksums) adapts to workload shifts without restarts, complementing \
               application-side fixes.",
    },
    KnowledgeDoc {
        id: "k60",
        title: "ION: Navigating the HPC I/O Optimization Journey Using Large Language Models",
        venue: "HotStorage",
        year: 2024,
        claims: &[DARSHAN_METHODOLOGY],
        body: "A proof-of-concept that prompts LLMs directly with Darshan summaries to \
               generate diagnoses. Quality tracks the backbone model closely and degrades \
               on long traces, motivating retrieval grounding and structured \
               pre-processing.",
    },
    // ---- Additional depth docs ----------------------------------------------
    KnowledgeDoc {
        id: "k61",
        title: "Progressive File Layouts: Adapting Striping to File Growth",
        venue: "LUG",
        year: 2021,
        claims: &[STRIPE_WIDTH_PARALLELISM, STRIPE_SIZE_TUNING],
        body: "Progressive file layouts start small files on one OST and widen striping \
               as files grow, giving small files low overhead and large files full \
               parallelism without user action — the right default where available \
               (lfs setstripe -E).",
    },
    KnowledgeDoc {
        id: "k62",
        title: "Asynchronous I/O and Overlap: Hiding Storage Latency in Tightly Coupled Codes",
        venue: "IPDPS",
        year: 2023,
        claims: &[IO_CHARACTERIZATION, SMALL_IO_AGGREGATION],
        body: "Non-blocking MPI-IO and background flush threads overlap computation with \
               I/O, hiding latency that synchronous small writes expose directly on the \
               critical path.",
    },
    KnowledgeDoc {
        id: "k63",
        title: "I/O Forwarding and Aggregation Layers on Leadership Systems",
        venue: "SC",
        year: 2021,
        claims: &[SMALL_IO_AGGREGATION, RANK_BALANCE],
        body: "Forwarding layers funnel compute-node I/O through dedicated nodes, \
               aggregating requests and smoothing per-server load; misconfigured \
               forwarding ratios reintroduce stragglers.",
    },
    KnowledgeDoc {
        id: "k64",
        title: "The I/O Trace Initiative: Building a Collaborative I/O Archive to Advance HPC",
        venue: "SC Workshops",
        year: 2023,
        claims: &[DARSHAN_METHODOLOGY, IO_CHARACTERIZATION],
        body: "A community archive of anonymised Darshan and Recorder traces enables \
               cross-facility studies and gives diagnosis tools shared ground truth to \
               evaluate against.",
    },
    KnowledgeDoc {
        id: "k65",
        title: "GIFT: Fair and Efficient I/O Bandwidth Management for Parallel Storage Systems",
        venue: "FAST",
        year: 2020,
        claims: &[IO_CHARACTERIZATION, RANK_BALANCE],
        body: "Coupon-based bandwidth allocation trades short-term fairness for \
               throughput while bounding unfairness, smoothing the contention that makes \
               identical jobs measure differently day to day.",
    },
    KnowledgeDoc {
        id: "k66",
        title: "From Counters to Causes: A Practitioner's Checklist for Darshan Log Triage",
        venue: "Best Practices Guide",
        year: 2024,
        claims: &[
            DARSHAN_METHODOLOGY,
            SMALL_IO_AGGREGATION,
            ALIGNMENT_MATTERS,
            METADATA_SCALABILITY,
            STRIPE_WIDTH_PARALLELISM,
        ],
        body: "Triage order for a slow job's Darshan log: check request-size histograms \
               first (small I/O), then FILE_NOT_ALIGNED (alignment), then F_META_TIME \
               against runtime (metadata), then stripe settings against file sizes and \
               process counts (server parallelism), then rank variance (stragglers), and \
               finally interface choice (POSIX vs MPI-IO vs STDIO). Most production \
               slowdowns fall to the first two checks.",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_66_documents() {
        assert_eq!(corpus().len(), 66);
    }

    #[test]
    fn ids_unique() {
        let mut ids: Vec<_> = corpus().iter().map(|d| d.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn every_doc_has_claims_and_body() {
        for d in corpus() {
            assert!(!d.claims.is_empty(), "{}", d.id);
            assert!(d.body.len() > 80, "{} body too short", d.id);
            assert!(d.year >= 2003 && d.year <= 2026, "{}", d.id);
        }
    }

    #[test]
    fn claims_are_known_keys() {
        for d in corpus() {
            for c in d.claims {
                assert!(claims::ALL.contains(c), "{} has unknown claim {c}", d.id);
            }
        }
    }

    #[test]
    fn every_claim_is_substantiated_by_multiple_docs() {
        for c in claims::ALL {
            let docs = corpus().iter().filter(|d| d.claims.contains(c)).count();
            assert!(docs >= 2, "claim {c} covered by {docs} docs");
        }
    }

    #[test]
    fn citation_format() {
        let d = get("k01").unwrap();
        assert_eq!(
            d.citation(),
            "[Striping Decisions for Parallel File Access, SC 2021]"
        );
    }

    #[test]
    fn lookup_miss_returns_none() {
        assert!(get("k99").is_none());
    }

    #[test]
    fn corpus_hash_is_stable_and_content_sensitive() {
        assert_eq!(corpus_hash(), corpus_hash());
        // Dropping a document, or editing any field of one, moves the hash.
        let truncated = hash_docs(&CORPUS[..65]);
        assert_ne!(corpus_hash(), truncated);
        let mut edited = CORPUS.to_vec();
        edited[0].year += 1;
        assert_ne!(corpus_hash(), hash_docs(&edited));
        let mut edited = CORPUS.to_vec();
        edited[0].body =
            "replaced body text for hash sensitivity check xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx";
        assert_ne!(corpus_hash(), hash_docs(&edited));
    }
}

//! The graph every other layer reads, pinned as data.
//!
//! One FNV-1a digest per network over everything the public accessors
//! return: each channel's decoded `(src, dst, level, lane, dir,
//! topo_rank)`, each switch's `(stage, index)`, every `out_port` list,
//! `injects()`, `ejects()` and `transmit_order()` — the spans collected
//! into the lists they were when a table held them. Candidate order — and
//! through it the engine's RNG stream — depends on nothing else the graph
//! holds, so a storage change that keeps these literals keeps every
//! simulated bit.
//!
//! The literals were recorded at the commit *before* the channel table
//! was packed (24-byte `ChannelDesc`s, `Vec<SwitchDesc>`); this file ran
//! there unmodified. On a mismatch the full actual table is printed.

use minnet_topology::{
    build_bmin, build_unidir, Direction, Endpoint, Geometry, NetworkGraph, Side, UnidirKind,
};

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn ids(&mut self, ids: &[u32]) {
        self.u32(ids.len() as u32);
        for &c in ids {
            self.u32(c);
        }
    }

    fn endpoint(&mut self, e: Endpoint) {
        match e {
            Endpoint::Node(n) => {
                self.bytes(&[0]);
                self.u32(n);
            }
            Endpoint::Switch { sw, side, port } => {
                self.bytes(&[1, (side == Side::Right) as u8, port]);
                self.u32(sw);
            }
        }
    }
}

fn digest(net: &NetworkGraph) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u32(net.num_channels() as u32);
    for c in 0..net.num_channels() as u32 {
        let ch = net.channel(c);
        h.endpoint(ch.src);
        h.endpoint(ch.dst);
        h.bytes(&[ch.level, ch.lane, (ch.dir == Direction::Backward) as u8]);
        h.bytes(&ch.topo_rank.to_le_bytes());
    }
    h.u32(net.num_switches() as u32);
    for s in 0..net.num_switches() as u32 {
        let sw = net.switch(s);
        h.bytes(&[sw.stage]);
        h.u32(sw.index);
        for code in 0..net.out_port_codes() {
            h.ids(&net.out_port(s, code).collect::<Vec<_>>());
        }
    }
    h.ids(&net.injects().collect::<Vec<_>>());
    h.ids(&net.ejects().collect::<Vec<_>>());
    h.ids(net.transmit_order());
    h.0
}

const WIRINGS: [UnidirKind; 4] = [
    UnidirKind::Cube,
    UnidirKind::Butterfly,
    UnidirKind::Omega,
    UnidirKind::Baseline,
];

/// The routing crate's lineup (every wiring at dilation 1 and 2, plus the
/// BMIN, over a spread of radices) and three larger networks.
fn networks() -> Vec<(String, NetworkGraph)> {
    let mut nets = Vec::new();
    for (k, n) in [(2, 3), (3, 3), (4, 3), (8, 2), (4, 4)] {
        let g = Geometry::new(k, n);
        for w in WIRINGS {
            for d in [1, 2] {
                nets.push((format!("{w:?} d={d} k={k} n={n}"), build_unidir(g, w, d)));
            }
        }
        nets.push((format!("Bmin k={k} n={n}"), build_bmin(g)));
    }
    nets.push(("Bmin k=4 n=5".into(), build_bmin(Geometry::new(4, 5))));
    nets.push((
        "Cube d=1 k=32 n=2".into(),
        build_unidir(Geometry::new(32, 2), UnidirKind::Cube, 1),
    ));
    nets.push(("Bmin k=4 n=7".into(), build_bmin(Geometry::new(4, 7))));
    nets
}

#[rustfmt::skip]
const RECORDED: [u64; 48] = [
    0xae6a2891e788a735, // Cube d=1 k=2 n=3
    0x27bce8dd9a70ef65, // Cube d=2 k=2 n=3
    0xaa39c210ea8f747d, // Butterfly d=1 k=2 n=3
    0x299509ea38c9b965, // Butterfly d=2 k=2 n=3
    0x93e55d5f78ceb3d5, // Omega d=1 k=2 n=3
    0x70f6a78626b4b50d, // Omega d=2 k=2 n=3
    0xaf1e437e1d593bfd, // Baseline d=1 k=2 n=3
    0x6eb5e9c06ccea6dd, // Baseline d=2 k=2 n=3
    0x4429260574982065, // Bmin k=2 n=3
    0x3265a3f9a85279c7, // Cube d=1 k=3 n=3
    0xed2690acb19cf7c3, // Cube d=2 k=3 n=3
    0x4c3bd55139d5a4ff, // Butterfly d=1 k=3 n=3
    0x30ec06e671cba38b, // Butterfly d=2 k=3 n=3
    0x251387c4b14895e7, // Omega d=1 k=3 n=3
    0xcb4386b6ec2ad1fb, // Omega d=2 k=3 n=3
    0xb9b8d38b2c7a1813, // Baseline d=1 k=3 n=3
    0xcc61163c22fdb7fb, // Baseline d=2 k=3 n=3
    0xbc903030c81a14dd, // Bmin k=3 n=3
    0x2c8c696a84b7e965, // Cube d=1 k=4 n=3
    0x1e51da1155f456a5, // Cube d=2 k=4 n=3
    0x4d0c488f29e3b0d5, // Butterfly d=1 k=4 n=3
    0x13c56090e143a2a5, // Butterfly d=2 k=4 n=3
    0x01b27a849516ade5, // Omega d=1 k=4 n=3
    0xab61ae58c772ea05, // Omega d=2 k=4 n=3
    0x7f30eda896044f85, // Baseline d=1 k=4 n=3
    0xd9064a0dce39d765, // Baseline d=2 k=4 n=3
    0xe7074235913fda25, // Bmin k=4 n=3
    0x46e1721f1affd4c5, // Cube d=1 k=8 n=2
    0x4ab6e193c8fbc86d, // Cube d=2 k=8 n=2
    0x05c58c9006c4f485, // Butterfly d=1 k=8 n=2
    0x4c4bbaefeec370ad, // Butterfly d=2 k=8 n=2
    0x46e1721f1affd4c5, // Omega d=1 k=8 n=2
    0x4ab6e193c8fbc86d, // Omega d=2 k=8 n=2
    0x05c58c9006c4f485, // Baseline d=1 k=8 n=2
    0x4c4bbaefeec370ad, // Baseline d=2 k=8 n=2
    0xaef0fcf4fb8cdaed, // Bmin k=8 n=2
    0x846aa2d7e5eb262a, // Cube d=1 k=4 n=4
    0x46d2171fa78d592a, // Cube d=2 k=4 n=4
    0xb4d2c46a38ed2daa, // Butterfly d=1 k=4 n=4
    0xedf62d710ce1f2aa, // Butterfly d=2 k=4 n=4
    0xfc469543d0ab66ea, // Omega d=1 k=4 n=4
    0xfb4600859910dcea, // Omega d=2 k=4 n=4
    0xd820d918bb488b6a, // Baseline d=1 k=4 n=4
    0xe77c733898bfc7aa, // Baseline d=2 k=4 n=4
    0x5968fe405cc4fd6a, // Bmin k=4 n=4
    0xdbe6df67b064ea0e, // Bmin k=4 n=5
    0xebf080042c8c7635, // Cube d=1 k=32 n=2
    0xc0a04b6c66ec72a5, // Bmin k=4 n=7
];

#[test]
fn graphs_are_the_recorded_graphs() {
    let nets = networks();
    let actual: Vec<u64> = nets.iter().map(|(_, net)| digest(net)).collect();
    if actual != RECORDED {
        for ((name, _), d) in nets.iter().zip(&actual) {
            eprintln!("    0x{d:016x}, // {name}");
        }
        panic!("graph digests differ from the recorded literals (actual table above)");
    }
}

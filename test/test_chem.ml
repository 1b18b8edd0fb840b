(* dt_chem: molecules, integrals, SCF and CCSD against literature values,
   plus the workload generators' calibration. *)

let check_float = Alcotest.(check (float 1e-9))

let molecule_accounting () =
  let h2 = Dt_chem.Molecule.h2 () in
  Alcotest.(check int) "electrons" 2 (Dt_chem.Molecule.electrons h2);
  Alcotest.(check int) "occupied" 1 (Dt_chem.Molecule.occupied_orbitals h2);
  Alcotest.(check int) "basis" 2 (Dt_chem.Molecule.basis_functions h2);
  check_float "nuclear repulsion" (1.0 /. 1.4) (Dt_chem.Molecule.nuclear_repulsion h2);
  let hehp = Dt_chem.Molecule.heh_plus () in
  Alcotest.(check int) "HeH+ electrons" 2 (Dt_chem.Molecule.electrons hehp);
  let u = Dt_chem.Molecule.uracil in
  Alcotest.(check int) "uracil electrons" 58 (Dt_chem.Molecule.electrons u);
  Alcotest.(check int) "uracil occupied" 29 (Dt_chem.Molecule.occupied_orbitals u);
  let si = Dt_chem.Molecule.silica_cluster ~units:10 in
  Alcotest.(check int) "silica basis" 190 (Dt_chem.Molecule.basis_functions si)

let boys_function () =
  check_float "F0(0) = 1" 1.0 (Dt_chem.Integrals.boys_f0 0.0);
  (* F0(t) = 0.5 sqrt(pi/t) erf(sqrt t); at t = 1: erf(1) = 0.8427007929 *)
  Alcotest.(check (float 1e-9)) "F0(1)"
    (0.5 *. sqrt Float.pi *. 0.84270079294971486934)
    (Dt_chem.Integrals.boys_f0 1.0);
  (* large argument: erf ~ 1 *)
  Alcotest.(check (float 1e-12)) "F0(40)"
    (0.5 *. sqrt (Float.pi /. 40.0))
    (Dt_chem.Integrals.boys_f0 40.0);
  (* monotonically decreasing *)
  let prev = ref 1.0 in
  for i = 1 to 100 do
    let v = Dt_chem.Integrals.boys_f0 (float_of_int i /. 10.0) in
    Alcotest.(check bool) "decreasing" true (v < !prev);
    prev := v
  done

let integral_sanity () =
  let shells = Dt_chem.Basis.of_molecule (Dt_chem.Molecule.h2 ()) in
  match shells with
  | [ s1; s2 ] ->
      (* normalised basis functions: unit self-overlap *)
      Alcotest.(check (float 1e-6)) "<1|1> = 1" 1.0 (Dt_chem.Integrals.overlap s1 s1);
      Alcotest.(check (float 1e-6)) "<2|2> = 1" 1.0 (Dt_chem.Integrals.overlap s2 s2);
      let s12 = Dt_chem.Integrals.overlap s1 s2 in
      Alcotest.(check bool) "0 < S12 < 1" true (s12 > 0.0 && s12 < 1.0);
      (* Szabo & Ostlund table 3.5 (H2, STO-3G, R = 1.4): S12 = 0.6593,
         T11 = 0.7600, (11|11) = 0.7746 *)
      Alcotest.(check (float 2e-4)) "S12" 0.6593 s12;
      Alcotest.(check (float 2e-4)) "T11" 0.7600 (Dt_chem.Integrals.kinetic s1 s1);
      Alcotest.(check (float 2e-4)) "(11|11)" 0.7746 (Dt_chem.Integrals.eri s1 s1 s1 s1);
      (* ERI symmetry: (12|11) = (21|11) = (11|12) *)
      let a = Dt_chem.Integrals.eri s1 s2 s1 s1
      and b = Dt_chem.Integrals.eri s2 s1 s1 s1
      and c = Dt_chem.Integrals.eri s1 s1 s1 s2 in
      Alcotest.(check (float 1e-10)) "8-fold symmetry ab" a b;
      Alcotest.(check (float 1e-10)) "8-fold symmetry ac" a c
  | _ -> Alcotest.fail "expected two shells"

let scf_h2 () =
  let r = Dt_chem.Scf.run (Dt_chem.Molecule.h2 ()) in
  Alcotest.(check bool) "converged" true r.Dt_chem.Scf.converged;
  (* literature: -1.11676 hartree total *)
  Alcotest.(check (float 5e-4)) "total energy" (-1.11676) r.Dt_chem.Scf.energy;
  Alcotest.(check int) "two orbitals" 2 (Array.length r.Dt_chem.Scf.orbital_energies);
  Alcotest.(check bool) "bonding below antibonding" true
    (r.Dt_chem.Scf.orbital_energies.(0) < r.Dt_chem.Scf.orbital_energies.(1));
  (* density integrates to the electron count: tr(D S) = 2 *)
  let shells = Dt_chem.Basis.of_molecule (Dt_chem.Molecule.h2 ()) in
  let s = Dt_chem.Integrals.overlap_matrix shells in
  let ds = Dt_tensor.Ops.matmul r.Dt_chem.Scf.density s in
  Alcotest.(check (float 1e-8)) "tr(DS) = 2" 2.0 (Dt_tensor.Ops.trace ds)

let scf_heh_plus () =
  let r = Dt_chem.Scf.run (Dt_chem.Molecule.heh_plus ()) in
  Alcotest.(check bool) "converged" true r.Dt_chem.Scf.converged;
  (* Szabo & Ostlund study this system: total energy about -2.8418 *)
  Alcotest.(check (float 5e-3)) "total energy" (-2.8418) r.Dt_chem.Scf.energy

let ccsd_h2_is_fci () =
  let r = Dt_chem.Ccsd.run (Dt_chem.Molecule.h2 ()) in
  Alcotest.(check bool) "converged" true r.Dt_chem.Ccsd.converged;
  (* CCSD is exact for 2 electrons; full CI for H2/STO-3G at 1.4 bohr is
     -1.13728 hartree (correlation about -0.02056) *)
  Alcotest.(check (float 5e-4)) "total" (-1.13728) r.Dt_chem.Ccsd.total_energy;
  Alcotest.(check (float 3e-4)) "correlation" (-0.02056) r.Dt_chem.Ccsd.correlation_energy;
  Alcotest.(check bool) "negative correlation" true (r.Dt_chem.Ccsd.correlation_energy < 0.0)

let ccsd_stretched_h2 () =
  (* correlation must grow in magnitude as the bond stretches *)
  let e d = (Dt_chem.Ccsd.run (Dt_chem.Molecule.h2 ~distance:d ())).Dt_chem.Ccsd.correlation_energy in
  let e14 = e 1.4 and e25 = e 2.5 in
  Alcotest.(check bool) "correlation grows" true (e25 < e14)

let workload_hf_calibration () =
  let cluster = Dt_ga.Cluster.cascade in
  let tasks = Dt_chem.Workload.hf_tasks ~seed:1 ~cluster ~nbf:3000 ~proc:0 () in
  let n = List.length tasks in
  Alcotest.(check bool) "task count in the paper's range" true (n >= 300 && n <= 900);
  let m_c =
    List.fold_left (fun a (t : Dt_core.Task.t) -> Float.max a t.Dt_core.Task.mem) 0.0 tasks
  in
  (* the paper's m_c for HF is 176 KB: two 100x100 double tiles + 16 KB *)
  Alcotest.(check bool) "m_c close to 176 KB" true (m_c > 160_000.0 && m_c <= 176_384.0);
  let sum f = List.fold_left (fun a t -> a +. f t) 0.0 tasks in
  let sc = sum (fun (t : Dt_core.Task.t) -> t.Dt_core.Task.comm)
  and sp = sum (fun (t : Dt_core.Task.t) -> t.Dt_core.Task.comp) in
  Alcotest.(check bool) "communication-bound (Fig 8)" true (sp /. sc > 0.15 && sp /. sc < 0.45)

let workload_ccsd_calibration () =
  let cluster = Dt_ga.Cluster.cascade in
  let tasks = Dt_chem.Workload.ccsd_tasks ~seed:1 ~cluster ~n_occ:29 ~n_virt:420 ~proc:0 () in
  let n = List.length tasks in
  Alcotest.(check bool) "task count in the paper's range" true (n >= 300 && n <= 800);
  let m_c =
    List.fold_left (fun a (t : Dt_core.Task.t) -> Float.max a t.Dt_core.Task.mem) 0.0 tasks
  in
  (* the paper's m_c for CCSD is 1.8 GB; ours lands in the same decade *)
  Alcotest.(check bool) "m_c of gigabyte scale" true (m_c > 5e8 && m_c < 8e9);
  let sum f = List.fold_left (fun a t -> a +. f t) 0.0 tasks in
  let sc = sum (fun (t : Dt_core.Task.t) -> t.Dt_core.Task.comm)
  and sp = sum (fun (t : Dt_core.Task.t) -> t.Dt_core.Task.comp) in
  Alcotest.(check bool) "roughly balanced (Fig 8)" true (sp /. sc > 0.55 && sp /. sc < 1.45)

let workload_determinism () =
  let cluster = Dt_ga.Cluster.cascade in
  let a = Dt_chem.Workload.ccsd_tasks ~seed:5 ~cluster ~n_occ:29 ~n_virt:120 ~proc:3 () in
  let b = Dt_chem.Workload.ccsd_tasks ~seed:5 ~cluster ~n_occ:29 ~n_virt:120 ~proc:3 () in
  Alcotest.(check bool) "same stream for same seed" true (List.for_all2 Dt_core.Task.equal a b);
  let c = Dt_chem.Workload.ccsd_tasks ~seed:6 ~cluster ~n_occ:29 ~n_virt:120 ~proc:3 () in
  Alcotest.(check bool) "different seed differs" true
    (not (List.length a = List.length c && List.for_all2 Dt_core.Task.equal a c))

let workload_trace_set_consistency () =
  let cluster = Dt_ga.Cluster.cascade in
  let set = Dt_chem.Workload.hf_trace_set ~seed:9 ~cluster ~nbf:1200 () in
  Alcotest.(check int) "one trace per process" (Dt_ga.Cluster.processes cluster)
    (Array.length set);
  let single = Dt_chem.Workload.hf_tasks ~seed:9 ~cluster ~nbf:1200 ~proc:17 () in
  Alcotest.(check bool) "per-proc accessor matches the set" true
    (List.for_all2 Dt_core.Task.equal set.(17) single)

let suite =
  [
    Alcotest.test_case "molecule accounting" `Quick molecule_accounting;
    Alcotest.test_case "Boys function" `Quick boys_function;
    Alcotest.test_case "integrals vs Szabo-Ostlund" `Quick integral_sanity;
    Alcotest.test_case "SCF H2" `Quick scf_h2;
    Alcotest.test_case "SCF HeH+" `Quick scf_heh_plus;
    Alcotest.test_case "CCSD H2 = FCI" `Quick ccsd_h2_is_fci;
    Alcotest.test_case "CCSD stretched H2" `Slow ccsd_stretched_h2;
    Alcotest.test_case "HF workload calibration" `Quick workload_hf_calibration;
    Alcotest.test_case "CCSD workload calibration" `Quick workload_ccsd_calibration;
    Alcotest.test_case "workload determinism" `Quick workload_determinism;
    Alcotest.test_case "trace set consistency" `Quick workload_trace_set_consistency;
  ]

(* Tiled Fock build: the tiled data path computes exactly the same matrix
   as the direct reference, and a full SCF through it converges to the
   same energy as the untiled code. *)
let tiled_fock_matches_reference () =
  let mol = Dt_chem.Molecule.h_chain ~n:4 () in
  let shells = Dt_chem.Basis.of_molecule mol in
  let rng = Dt_stats.Rng.create 31 in
  let n = Dt_chem.Basis.size shells in
  let raw = Dt_tensor.Dense.random rng (Dt_tensor.Shape.of_list [ n; n ]) in
  (* a symmetric pseudo-density *)
  let density =
    Dt_tensor.Dense.init (Dt_tensor.Shape.of_list [ n; n ]) (fun i ->
        0.5
        *. (Dt_tensor.Dense.get raw [| i.(0); i.(1) |]
           +. Dt_tensor.Dense.get raw [| i.(1); i.(0) |]))
  in
  let reference = Dt_chem.Tiled_hf.g_matrix_reference shells ~density in
  List.iter
    (fun tile ->
      let tiled, stats = Dt_chem.Tiled_hf.g_matrix_tiled shells ~density ~tile in
      Alcotest.(check bool)
        (Printf.sprintf "tile=%d matches" tile)
        true
        (Dt_tensor.Dense.equal ~eps:1e-10 reference tiled);
      let nt = (n + tile - 1) / tile in
      Alcotest.(check int)
        (Printf.sprintf "tile=%d task count" tile)
        (nt * nt * nt * nt) (List.length stats);
      (* every task reads exactly one density tile *)
      List.iter
        (fun st ->
          let la, si = st.Dt_chem.Tiled_hf.ket in
          Alcotest.(check int) "density bytes" (8 * la.Dt_tensor.Tile.length * si.Dt_tensor.Tile.length)
            st.Dt_chem.Tiled_hf.density_bytes)
        stats)
    [ 1; 2; 3; 4 ]

let tiled_scf_energy () =
  let mol = Dt_chem.Molecule.h_chain ~n:4 () in
  let untiled = (Dt_chem.Scf.run mol).Dt_chem.Scf.energy in
  let tiled = Dt_chem.Tiled_hf.scf_energy_tiled ~tile:3 mol in
  Alcotest.(check (float 1e-7)) "same energy through the tiled path" untiled tiled

let h_chain_accounting () =
  let m = Dt_chem.Molecule.h_chain ~n:6 () in
  Alcotest.(check int) "electrons" 6 (Dt_chem.Molecule.electrons m);
  Alcotest.(check int) "basis" 6 (Dt_chem.Molecule.basis_functions m);
  Alcotest.check_raises "n > 0" (Invalid_argument "Molecule.h_chain: n must be positive")
    (fun () -> ignore (Dt_chem.Molecule.h_chain ~n:0 ()))

let suite =
  suite
  @ [
      Alcotest.test_case "tiled Fock = reference" `Slow tiled_fock_matches_reference;
      Alcotest.test_case "tiled SCF energy" `Slow tiled_scf_energy;
      Alcotest.test_case "h-chain accounting" `Quick h_chain_accounting;
    ]

let mp2_sanity () =
  let mp2 = Dt_chem.Ccsd.mp2_correlation (Dt_chem.Molecule.h2 ()) in
  let ccsd = (Dt_chem.Ccsd.run (Dt_chem.Molecule.h2 ())).Dt_chem.Ccsd.correlation_energy in
  Alcotest.(check bool) "negative" true (mp2 < 0.0);
  (* for H2 CCSD is exact; MP2 recovers only part of the correlation *)
  Alcotest.(check bool) "partial correlation" true (mp2 > ccsd && mp2 < 0.5 *. ccsd)

let suite = suite @ [ Alcotest.test_case "MP2 sanity" `Quick mp2_sanity ]

(* Same seed => bit-identical trace, tile annotations included (pins the
   dead-RNG removal in Workload.item_rng: the stream depends on nothing
   but (seed, index)). Task.equal compares the annotations too. *)
let workload_seed_determinism () =
  let cluster = Dt_ga.Cluster.cascade in
  let a = Dt_chem.Workload.hf_tasks ~seed:9 ~cluster ~nbf:800 ~proc:2 () in
  let b = Dt_chem.Workload.hf_tasks ~seed:9 ~cluster ~nbf:800 ~proc:2 () in
  Alcotest.(check bool) "hf identical for same seed" true
    (List.for_all2 Dt_core.Task.equal a b);
  let c = Dt_chem.Workload.ccsd_tasks ~seed:5 ~cluster ~n_occ:29 ~n_virt:120 ~proc:1 () in
  let d = Dt_chem.Workload.ccsd_tasks ~seed:5 ~cluster ~n_occ:29 ~n_virt:120 ~proc:1 () in
  Alcotest.(check bool) "ccsd identical for same seed" true
    (List.for_all2 Dt_core.Task.equal c d)

(* The generators annotate their remote tiles: shares must be real
   carve-outs (some task has tiles; the totals are validated by
   Task.make) and HF tile ids must repeat across quartets (that reuse is
   what the residency model exploits). *)
let workload_tile_annotations () =
  let cluster = Dt_ga.Cluster.cascade in
  let hf = Dt_chem.Workload.hf_tasks ~seed:9 ~cluster ~nbf:1600 ~proc:2 () in
  let tiled = List.filter (fun t -> t.Dt_core.Task.tiles <> []) hf in
  Alcotest.(check bool) "hf tasks carry tile refs" true (tiled <> []);
  let ids =
    List.concat_map
      (fun t -> List.map (fun r -> r.Dt_core.Task.tile) t.Dt_core.Task.tiles)
      tiled
  in
  Alcotest.(check bool) "tile ids repeat across quartets" true
    (List.length (List.sort_uniq compare ids) < List.length ids);
  let ccsd = Dt_chem.Workload.ccsd_tasks ~seed:5 ~cluster ~n_occ:29 ~n_virt:120 ~proc:1 () in
  Alcotest.(check bool) "ccsd tasks carry tile refs" true
    (List.exists (fun t -> t.Dt_core.Task.tiles <> []) ccsd)

let suite =
  suite
  @ [
      Alcotest.test_case "workload seed determinism" `Quick workload_seed_determinism;
      Alcotest.test_case "workload tile annotations" `Quick workload_tile_annotations;
    ]

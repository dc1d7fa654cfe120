(* Tests for the polyhedral IR: extraction, interpretation, dependences,
   tiling. *)

open Poly_ir

let v = Ir.aff_var
let p = Ir.aff_param
let c = Ir.aff_const

(* C[i][j] += A[i][k] * B[k][j], with explicit initialization *)
let gemm =
  {
    Ir.prog_name = "gemm";
    params = [ "n" ];
    arrays =
      [
        { Ir.array_name = "A"; extents = [ p "n"; p "n" ]; elem_size = 8 };
        { Ir.array_name = "B"; extents = [ p "n"; p "n" ]; elem_size = 8 };
        { Ir.array_name = "C"; extents = [ p "n"; p "n" ]; elem_size = 8 };
      ];
    body =
      [
        Ir.loop "i" ~lo:(c 0) ~hi:(p "n")
          [
            Ir.loop "j" ~lo:(c 0) ~hi:(p "n")
              [
                Ir.assign "init" ~target:(Ir.write "C" [ v "i"; v "j" ]) (Ir.Const 0.0);
                Ir.loop "k" ~lo:(c 0) ~hi:(p "n")
                  [
                    Ir.assign "update"
                      ~target:(Ir.write "C" [ v "i"; v "j" ])
                      (Ir.Bin
                         ( Ir.Add,
                           Ir.read "C" [ v "i"; v "j" ],
                           Ir.Bin
                             ( Ir.Mul,
                               Ir.read "A" [ v "i"; v "k" ],
                               Ir.read "B" [ v "k"; v "j" ] ) ));
                  ];
              ];
          ];
      ];
  }

(* simple copy with a shift: B[i] = A[i+1], then A[i] = B[i] (WAR/RAW mix) *)
let shift =
  {
    Ir.prog_name = "shift";
    params = [ "n" ];
    arrays =
      [
        { Ir.array_name = "A"; extents = [ Ir.aff_add (p "n") (c 1) ]; elem_size = 8 };
        { Ir.array_name = "B"; extents = [ p "n" ]; elem_size = 8 };
      ];
    body =
      [
        Ir.loop "i" ~lo:(c 0) ~hi:(p "n")
          [ Ir.assign "s0" ~target:(Ir.write "B" [ v "i" ]) (Ir.read "A" [ Ir.aff_add (v "i") (c 1) ]) ];
        Ir.loop "i2" ~lo:(c 0) ~hi:(p "n")
          [ Ir.assign "s1" ~target:(Ir.write "A" [ v "i2" ]) (Ir.read "B" [ v "i2" ]) ];
      ];
  }

(* a truly sequential loop: A[i] = A[i-1] + 1 *)
let seq_chain =
  {
    Ir.prog_name = "chain";
    params = [ "n" ];
    arrays = [ { Ir.array_name = "A"; extents = [ p "n" ]; elem_size = 8 } ];
    body =
      [
        Ir.loop "i" ~lo:(c 1) ~hi:(p "n")
          [
            Ir.assign "s"
              ~target:(Ir.write "A" [ v "i" ])
              (Ir.Bin (Ir.Add, Ir.read "A" [ Ir.aff_sub (v "i") (c 1) ], Ir.Const 1.0));
          ];
      ];
  }

(* ---------- Ir ---------- *)

let test_validate () =
  (match Ir.validate gemm with
  | Ok () -> ()
  | Error m -> Alcotest.failf "gemm should validate: %s" m);
  let bad =
    { gemm with Ir.body = [ Ir.assign "s" ~target:(Ir.write "X" [ c 0 ]) (Ir.Const 1.0) ] }
  in
  (match Ir.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "undeclared array should fail");
  let shadowed =
    {
      gemm with
      Ir.body =
        [
          Ir.loop "i" ~lo:(c 0) ~hi:(p "n")
            [ Ir.loop "i" ~lo:(c 0) ~hi:(p "n") [] ];
        ];
    }
  in
  (match Ir.validate shadowed with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "shadowed loop var should fail")

let test_flops_accesses () =
  let upd = List.nth (Ir.stmts gemm) 1 in
  Alcotest.(check int) "update flops" 2 (Ir.flops_of_expr upd.Ir.rhs);
  Alcotest.(check int) "update accesses" 4 (List.length (Ir.accesses_of_stmt upd))

(* ---------- Scop ---------- *)

let test_scop_domains () =
  let scop = Scop.extract gemm in
  Alcotest.(check int) "two statements" 2 (List.length scop.Scop.stmt_infos);
  let init = Scop.find_stmt scop "init" in
  let update = Scop.find_stmt scop "update" in
  Alcotest.(check int) "init depth" 2 (List.length init.Scop.iter_vars);
  Alcotest.(check int) "update depth" 3 (List.length update.Scop.iter_vars);
  Alcotest.(check int) "init domain card" 16
    (Scop.domain_cardinality scop init ~param_values:[ ("n", 4) ]);
  Alcotest.(check int) "update domain card" 64
    (Scop.domain_cardinality scop update ~param_values:[ ("n", 4) ])

let test_scop_flop_count () =
  (* Ω = 0·n² (init) + 2·n³ (update) *)
  Alcotest.(check int) "flops at n=5" 250
    (Scop.flop_count (Scop.extract gemm) ~param_values:[ ("n", 5) ]);
  match Scop.flop_count_sym (Scop.extract gemm) with
  | None -> Alcotest.fail "symbolic flop count expected"
  | Some qp ->
    Alcotest.(check int) "symbolic at n=100" 2_000_000 (Presburger.Count.eval qp 100)

let test_scop_beta () =
  let scop = Scop.extract gemm in
  let init = Scop.find_stmt scop "init" in
  let update = Scop.find_stmt scop "update" in
  Alcotest.(check (list int)) "init beta" [ 0; 0; 0 ] init.Scop.beta;
  Alcotest.(check (list int)) "update beta" [ 0; 0; 1; 0 ] update.Scop.beta;
  Alcotest.(check int) "common depth" 2 (Scop.common_depth init update)

(* ---------- Interp ---------- *)

let test_interp_gemm () =
  let r =
    Interp.run gemm ~param_values:[ ("n", 6) ] Interp.null_callbacks
  in
  (* reference: recompute with plain OCaml *)
  let n = 6 in
  let a = Array.init (n * n) (Interp.{ null_callbacks with on_stmt = (fun ~stmt:_ ~flops:_ -> ()) } |> fun _ -> fun i -> float_of_int ((i * 16807 mod 97) + 1) /. 48.5) in
  let b = a (* same deterministic init for all arrays *) in
  let expected i j =
    let acc = ref 0.0 in
    for k = 0 to n - 1 do
      acc := !acc +. (a.((i * n) + k) *. b.((k * n) + j))
    done;
    !acc
  in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "C[%d][%d]" i j)
        (expected i j)
        (Interp.array_value r "C" [| i; j |])
    done
  done;
  Alcotest.(check int) "instances" ((6 * 6) + (6 * 6 * 6)) r.Interp.instances;
  Alcotest.(check int) "flops" (2 * 6 * 6 * 6) r.Interp.flops

let test_interp_scan_matches_execute () =
  let trace mode =
    let acc = ref [] in
    let cb =
      Interp.with_access (fun ~stmt:_ ~array ~addr ~bytes:_ ~is_write ->
          acc := (array, addr, is_write) :: !acc)
    in
    ignore (Interp.run ~compute:mode gemm ~param_values:[ ("n", 3) ] cb);
    List.rev !acc
  in
  let t_exec = trace true and t_scan = trace false in
  Alcotest.(check int) "same length" (List.length t_exec) (List.length t_scan);
  List.iter2
    (fun (a1, d1, w1) (a2, d2, w2) ->
      Alcotest.(check string) "array" a1 a2;
      Alcotest.(check int) "addr" d1 d2;
      Alcotest.(check bool) "kind" w1 w2)
    t_exec t_scan

let test_layout () =
  let l = Layout.of_program gemm ~param_values:[ ("n", 4) ] in
  let a = Layout.find l "A" and b = Layout.find l "B" in
  Alcotest.(check int) "A base" 0 a.Layout.base;
  Alcotest.(check int) "A size" (4 * 4 * 8) a.Layout.size_bytes;
  Alcotest.(check bool) "B after A" true (b.Layout.base >= a.Layout.size_bytes);
  Alcotest.(check int) "B aligned" 0 (b.Layout.base mod 64);
  Alcotest.(check int) "address" (a.Layout.base + ((4 + 2) * 8))
    (Layout.address a [| 1; 2 |])

(* ---------- Dependence ---------- *)

let test_gemm_deps () =
  let scop = Scop.extract gemm in
  let deps = Dependence.analyze scop ~param_values:[ ("n", 5) ] in
  Alcotest.(check bool) "has deps" true (deps <> []);
  (* the k-loop of update carries a RAW on C (reduction) *)
  let self_raw =
    List.filter
      (fun (d : Dependence.t) ->
        d.Dependence.kind = Dependence.Raw
        && d.Dependence.src.Scop.stmt.Ir.stmt_name = "update"
        && d.Dependence.dst.Scop.stmt.Ir.stmt_name = "update")
      deps
  in
  Alcotest.(check bool) "self RAW on update" true (self_raw <> []);
  (* loops i and j are parallel; k is not *)
  let update_deps =
    List.filter
      (fun (d : Dependence.t) ->
        d.Dependence.src.Scop.stmt.Ir.stmt_name = "update"
        && d.Dependence.dst.Scop.stmt.Ir.stmt_name = "update")
      deps
  in
  Alcotest.(check bool) "i parallel" true (Dependence.loop_parallel update_deps 0);
  Alcotest.(check bool) "j parallel" true (Dependence.loop_parallel update_deps 1);
  Alcotest.(check bool) "k sequential" false (Dependence.loop_parallel update_deps 2)

let test_chain_deps () =
  let scop = Scop.extract seq_chain in
  let deps = Dependence.analyze scop ~param_values:[ ("n", 8) ] in
  Alcotest.(check bool) "chain has RAW" true
    (List.exists (fun (d : Dependence.t) -> d.Dependence.kind = Dependence.Raw) deps);
  Alcotest.(check bool) "loop not parallel" false (Dependence.loop_parallel deps 0);
  (* distance is exactly +1 *)
  let raw =
    List.find (fun (d : Dependence.t) -> d.Dependence.kind = Dependence.Raw) deps
  in
  let dist = Dependence.distance_set raw in
  Alcotest.(check bool) "distance 1" true (Presburger.Pset.mem dist [| 1 |]);
  Alcotest.(check bool) "no distance 2" false (Presburger.Pset.mem dist [| 2 |])

let test_shift_no_false_deps () =
  let scop = Scop.extract shift in
  let deps = Dependence.analyze scop ~param_values:[ ("n", 6) ] in
  (* B written by s0, read by s1: cross-statement RAW must exist *)
  Alcotest.(check bool) "cross RAW on B" true
    (List.exists
       (fun (d : Dependence.t) ->
         d.Dependence.kind = Dependence.Raw
         && d.Dependence.src_access.Ir.array = "B")
       deps);
  (* no dependence from s1 back to s0 *)
  Alcotest.(check bool) "no backwards dep" false
    (List.exists
       (fun (d : Dependence.t) ->
         d.Dependence.src.Scop.stmt.Ir.stmt_name = "s1"
         && d.Dependence.dst.Scop.stmt.Ir.stmt_name = "s0")
       deps)

(* ---------- Tiling ---------- *)

let test_tile_gemm () =
  let r = Tiling.tile ~tile_size:4 gemm in
  (match r.Tiling.nests with
  | [ n ] ->
    Alcotest.(check int) "band 2 (imperfect below j)" 2 n.Tiling.band;
    Alcotest.(check bool) "outer parallel" true n.Tiling.parallel
  | _ -> Alcotest.fail "one nest expected");
  (* semantics preserved *)
  let orig = Interp.run gemm ~param_values:[ ("n", 7) ] Interp.null_callbacks in
  let tiled = Interp.run r.Tiling.tiled ~param_values:[ ("n", 7) ] Interp.null_callbacks in
  for i = 0 to 6 do
    for j = 0 to 6 do
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "tiled C[%d][%d]" i j)
        (Interp.array_value orig "C" [| i; j |])
        (Interp.array_value tiled "C" [| i; j |])
    done
  done

let test_tile_chain_not_parallel () =
  let r = Tiling.tile ~tile_size:4 seq_chain in
  match r.Tiling.nests with
  | [ n ] ->
    Alcotest.(check int) "no band" 0 n.Tiling.band;
    Alcotest.(check bool) "not parallel" false n.Tiling.parallel
  | _ -> Alcotest.fail "one nest expected"

(* perfect 3-nest: single statement matmul without init *)
let matmul_perfect =
  {
    gemm with
    Ir.prog_name = "matmul3";
    body =
      [
        Ir.loop "i" ~lo:(c 0) ~hi:(p "n")
          [
            Ir.loop "j" ~lo:(c 0) ~hi:(p "n")
              [
                Ir.loop "k" ~lo:(c 0) ~hi:(p "n")
                  [
                    Ir.assign "upd"
                      ~target:(Ir.write "C" [ v "i"; v "j" ])
                      (Ir.Bin
                         ( Ir.Add,
                           Ir.read "C" [ v "i"; v "j" ],
                           Ir.Bin
                             ( Ir.Mul,
                               Ir.read "A" [ v "i"; v "k" ],
                               Ir.read "B" [ v "k"; v "j" ] ) ));
                  ];
              ];
          ];
      ];
  }

let test_tile_perfect_band3 () =
  let r = Tiling.tile ~tile_size:4 matmul_perfect in
  (match r.Tiling.nests with
  | [ n ] -> Alcotest.(check int) "band 3" 3 n.Tiling.band
  | _ -> Alcotest.fail "one nest expected");
  let orig = Interp.run matmul_perfect ~param_values:[ ("n", 9) ] Interp.null_callbacks in
  let tiled = Interp.run r.Tiling.tiled ~param_values:[ ("n", 9) ] Interp.null_callbacks in
  Alcotest.(check (float 1e-9)) "spot value"
    (Interp.array_value orig "C" [| 8; 3 |])
    (Interp.array_value tiled "C" [| 8; 3 |])

(* qcheck: tiled gemm equals untiled gemm on random sizes *)
let qcheck_tests =
  [
    QCheck.Test.make ~name:"tiling preserves semantics (gemm)" ~count:10
      (QCheck.make QCheck.Gen.(int_range 3 12))
      (fun n ->
        let r = Tiling.tile ~tile_size:5 gemm in
        let orig = Interp.run gemm ~param_values:[ ("n", n) ] Interp.null_callbacks in
        let tiled =
          Interp.run r.Tiling.tiled ~param_values:[ ("n", n) ] Interp.null_callbacks
        in
        let ok = ref true in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if
              Float.abs
                (Interp.array_value orig "C" [| i; j |]
                -. Interp.array_value tiled "C" [| i; j |])
              > 1e-9
            then ok := false
          done
        done;
        !ok);
    QCheck.Test.make ~name:"scan access count = n³·4 + n²·1 (gemm)" ~count:10
      (QCheck.make QCheck.Gen.(int_range 2 10))
      (fun n ->
        let r =
          Interp.run ~compute:false gemm ~param_values:[ ("n", n) ]
            Interp.null_callbacks
        in
        r.Interp.accesses = (n * n * n * 4) + (n * n));
  ]

let tests =
  [
    Alcotest.test_case "validate" `Quick test_validate;
    Alcotest.test_case "flops/accesses" `Quick test_flops_accesses;
    Alcotest.test_case "scop domains" `Quick test_scop_domains;
    Alcotest.test_case "scop flop count" `Quick test_scop_flop_count;
    Alcotest.test_case "scop beta/common" `Quick test_scop_beta;
    Alcotest.test_case "interp gemm" `Quick test_interp_gemm;
    Alcotest.test_case "scan = execute trace" `Quick test_interp_scan_matches_execute;
    Alcotest.test_case "layout" `Quick test_layout;
    Alcotest.test_case "gemm dependences" `Quick test_gemm_deps;
    Alcotest.test_case "chain dependences" `Quick test_chain_deps;
    Alcotest.test_case "shift dependences" `Quick test_shift_no_false_deps;
    Alcotest.test_case "tile gemm" `Quick test_tile_gemm;
    Alcotest.test_case "tile chain (illegal)" `Quick test_tile_chain_not_parallel;
    Alcotest.test_case "tile perfect 3-band" `Quick test_tile_perfect_band3;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_tests

(* ---------- isl export (OpenSCoP substitute) ---------- *)

let test_isl_export_reparses () =
  let scop = Scop.extract gemm in
  let dump = Scop.export_isl scop in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions statements" true
    (contains dump "statement update");
  (* every "domain   :" line must re-parse and match the original count *)
  let lines = String.split_on_char '\n' dump in
  let domains =
    List.filter_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when
            (try String.sub l 0 i |> String.trim = "domain" with _ -> false) ->
          Some (String.sub l (i + 1) (String.length l - i - 1))
        | _ -> None)
      lines
  in
  Alcotest.(check int) "two domains" 2 (List.length domains);
  List.iter2
    (fun src info ->
      let reparsed = Presburger.Syntax.pset_of_string (String.trim src) in
      let fixed = Presburger.Pset.fix_params reparsed [| 6 |] in
      Alcotest.(check int) "reparsed cardinality"
        (Scop.domain_cardinality scop info ~param_values:[ ("n", 6) ])
        (Presburger.Pset.cardinality fixed))
    domains scop.Scop.stmt_infos

(* The result store's key renders the program with [Ir.fingerprint]: an
   edit to any one field must change it. *)
let test_fingerprint_covers_fields () =
  let fp = Ir.fingerprint in
  Alcotest.(check string) "a rebuilt copy renders alike" (fp gemm)
    (fp (Ir.map_items Fun.id gemm));
  let stmts f = Ir.map_items (function Ir.Stmt s -> Ir.Stmt (f s) | it -> it) gemm in
  let loops f = Ir.map_items (function Ir.Loop l -> Ir.Loop (f l) | it -> it) gemm in
  let init x =
    stmts (fun s -> if s.Ir.stmt_name = "init" then { s with Ir.rhs = Ir.Const x } else s)
  in
  let variants =
    [
      ("original", gemm);
      ("program name", { gemm with Ir.prog_name = "gemm2" });
      ("parameters", { gemm with Ir.params = [ "n"; "m" ] });
      ( "element size",
        { gemm with Ir.arrays = List.map (fun d -> { d with Ir.elem_size = 4 }) gemm.Ir.arrays } );
      ("statement name", stmts (fun s -> { s with Ir.stmt_name = s.Ir.stmt_name ^ "'" }));
      ("constant", init 0.1);
      (* %g would print both as 0.1 *)
      ("constant's last bit", init (Float.succ 0.1));
      ("parallel mark", loops (fun l -> { l with Ir.parallel = true }));
      ("step", loops (fun l -> { l with Ir.step = 2 }));
    ]
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (what, prog) ->
      match Hashtbl.find_opt seen (fp prog) with
      | Some other -> Alcotest.failf "%s renders like %s" what other
      | None -> Hashtbl.add seen (fp prog) what)
    variants

let tests =
  tests
  @ [
      Alcotest.test_case "isl export reparses" `Quick test_isl_export_reparses;
      Alcotest.test_case "fingerprint covers every field" `Quick
        test_fingerprint_covers_fields;
    ]

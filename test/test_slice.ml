(* Unit tests for semantic slicing: cone construction (backward with
   write closure, forward), slice extraction (drops, promotion under a
   focus), the testbench harness (instance rewriting, replay block), the
   repair-side Slicing.prepare engagement/fallback contract, and GP and
   brute-force repair end to end on a design where slicing engages. The
   dynamic soundness sweep lives in slice_equiv_run.ml. *)

open Verilog

let parse_m src =
  match Parser.parse_design src with
  | [ m ] -> m
  | _ -> Alcotest.fail "one module expected"

(* Two independent chains: y depends on a through t; z depends on b. *)
let chains_src =
  "module m(a, b, y, z);\n\
  \  input a, b; output y, z; reg y, z; wire t;\n\
  \  assign t = a;\n\
  \  always @(*) y = t;\n\
  \  always @(*) z = b;\n\
   endmodule"

let contains haystack needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) haystack 0);
    true
  with Not_found -> false

(* The node writing [net], for tests that need concrete item ids. *)
let writer g net =
  match
    List.find_opt (fun (n : Slice.node) -> Slice.Names.mem net n.n_writes)
      (Slice.nodes g)
  with
  | Some n -> n
  | None -> Alcotest.fail ("no node writes " ^ net)

let test_backward_cone () =
  let m = parse_m chains_src in
  let g = Slice.build m in
  let ids, names = Slice.backward g (Slice.Names.singleton "y") in
  Alcotest.(check int) "y cone: two nodes" 2 (Slice.Ids.cardinal ids);
  Alcotest.(check bool) "y cone names" true
    (List.for_all (fun n -> Slice.Names.mem n names) [ "a"; "t"; "y" ]);
  Alcotest.(check bool) "b outside y's cone" false (Slice.Names.mem "b" names);
  let ids_z, _ = Slice.backward g (Slice.Names.singleton "z") in
  Alcotest.(check int) "z cone: one node" 1 (Slice.Ids.cardinal ids_z)

let test_write_closure () =
  (* s is multiply driven: the cone of y must keep both writers, or the
     sliced value of s (hence y) could differ from the whole design's. *)
  let m =
    parse_m
      "module m(clk, y); input clk; output y; reg y; reg s;\n\
       always @(posedge clk) s <= 1'b0;\n\
       always @(posedge clk) s <= 1'b1;\n\
       always @(posedge clk) y <= s;\n\
       endmodule"
  in
  let g = Slice.build m in
  let ids, _ = Slice.backward g (Slice.Names.singleton "y") in
  Alcotest.(check int) "all three nodes kept" 3 (Slice.Ids.cardinal ids)

let test_forward_cone () =
  let m = parse_m chains_src in
  let g = Slice.build m in
  let t_writer = writer g "t" in
  let fwd = Slice.forward g (Slice.Ids.singleton t_writer.n_id) in
  Alcotest.(check bool) "reaches y's writer" true
    (Slice.Ids.mem (writer g "y").n_id fwd);
  Alcotest.(check bool) "does not reach z's writer" false
    (Slice.Ids.mem (writer g "z").n_id fwd)

let test_slice_extraction () =
  let m = parse_m chains_src in
  let plan = Slice.slice m ~outputs:[ "y" ] in
  Alcotest.(check (list string)) "outputs" [ "y" ] plan.sl_outputs;
  Alcotest.(check (list string)) "inputs" [ "a" ] plan.sl_inputs;
  Alcotest.(check (list string)) "no promotion without focus" []
    plan.sl_promoted;
  Alcotest.(check int) "one node dropped" 1 (List.length plan.sl_dropped);
  Alcotest.(check (list string)) "slice header" [ "y" ]
    (Slice.output_ports plan.sl_module);
  Alcotest.(check bool) "slice is smaller" true
    (Ast_utils.module_size plan.sl_module < Ast_utils.module_size m)

let test_focus_promotion () =
  (* Focusing on y's process alone cuts t's driver out of the slice, so
     t must be promoted to an input port for the caller to drive. *)
  let m = parse_m chains_src in
  let g = Slice.build m in
  let focus = Slice.Ids.singleton (writer g "y").n_id in
  let plan = Slice.slice ~focus m ~outputs:[ "y" ] in
  Alcotest.(check (list string)) "t promoted" [ "t" ] plan.sl_promoted;
  Alcotest.(check bool) "t is an input of the slice" true
    (List.mem "t" (Slice.input_ports plan.sl_module))

let tb_src =
  "module tb; reg a, b; wire y, z;\n\
   m dut(.a(a), .b(b), .y(y), .z(z));\n\
   initial begin a = 0; b = 0; #10 a = 1; #10 $finish; end\n\
   endmodule"

let test_rewrite_testbench () =
  let target = parse_m chains_src in
  let tb = parse_m tb_src in
  let g = Slice.build target in
  let focus = Slice.Ids.singleton (writer g "y").n_id in
  let plan = Slice.slice ~focus target ~outputs:[ "y" ] in
  let tb' = Slice.rewrite_testbench ~tb ~inst:"dut" ~target plan in
  let printed = Pp.module_to_string tb' in
  Alcotest.(check bool) "replay register declared and connected" true
    (contains printed "__slice_t");
  Alcotest.(check bool) "dropped port connection removed" false
    (contains printed ".z(")

let test_replay_items () =
  let target = parse_m chains_src in
  let g = Slice.build target in
  let focus = Slice.Ids.singleton (writer g "y").n_id in
  let plan = Slice.slice ~focus target ~outputs:[ "y" ] in
  let vec b = Logic4.Vec.of_string (if b then "1" else "0") in
  let items =
    Slice.replay_items plan
      ~samples:
        [ (5, [ ("t", vec false) ]); (15, [ ("t", vec true) ]) ]
  in
  Alcotest.(check int) "one initial block" 1 (List.length items);
  let printed =
    String.concat "\n"
      (List.map (fun i -> Format.asprintf "%a" Pp.pp_item i) items)
  in
  Alcotest.(check bool) "drives the replay register" true
    (contains printed "__slice_t")

(* --- Repair-side engagement ---------------------------------------------- *)

(* i2c's watchdog process is outside the mismatch cone of its defect
   scenarios: prepare must engage, drop it, and promote nothing. *)
let test_prepare_engages () =
  let d = Bench_suite.Defects.find 18 in
  let problem = Bench_suite.Defects.problem d in
  let ev = Cirfix.Evaluate.create Cirfix.Config.default problem in
  match Cirfix.Slicing.prepare ev with
  | None -> Alcotest.fail "prepare fell back on i2c"
  | Some s ->
      Alcotest.(check bool) "dropped something" true (s.plan.sl_dropped <> []);
      Alcotest.(check (list string)) "no cut points" [] s.plan.sl_promoted;
      (* Stitching the empty patch reproduces the whole target module. *)
      Alcotest.(check string) "stitch [] = whole"
        (Ast_utils.structural_hash s.whole_target)
        (Ast_utils.structural_hash (Cirfix.Slicing.stitch s []))

(* sdram_controller's mismatch cone covers the whole design (the command
   tracer derives from the mismatching command stream): prepare must
   fall back honestly rather than produce a trivial whole-module slice. *)
let test_prepare_falls_back () =
  let d = Bench_suite.Defects.find 31 in
  let problem = Bench_suite.Defects.problem d in
  let ev = Cirfix.Evaluate.create Cirfix.Config.default problem in
  Alcotest.(check bool) "prepare returns None" true
    (Cirfix.Slicing.prepare ev = None)

(* --- Slice-mode repair end to end ----------------------------------------- *)

(* i2c#18 engages the slicer (above); a fixed-seed search on it must go
   through the stitched whole-design gate, report a patch that repairs the
   WHOLE design, and keep its journal independent of [jobs]. *)
let engaging_problem () =
  Bench_suite.Defects.problem (Bench_suite.Defects.find 18)

let engaging_config ~jobs =
  {
    (Bench_suite.Runner.scenario_config (Bench_suite.Defects.find 18)) with
    Cirfix.Config.seed = 2;
    jobs;
    max_wall_seconds = 600.0;
  }

(* Run [f] with the journal open on a temporary file; return its result
   and the journal text with the documented timing fields blanked. *)
let journaled f =
  let path = Filename.temp_file "cirfix-slice" ".jsonl" in
  let r = Obs.Journal.with_file path f in
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let blank field s =
    Str.global_replace
      (Str.regexp (Printf.sprintf "\"%s\":[0-9.eE+-]+" field))
      (Printf.sprintf "\"%s\":X" field)
      s
  in
  (r, text |> blank "elapsed_s" |> blank "wall_seconds")

(* The patch must score 1.0 on a fresh whole-design evaluator, i.e. with
   no state carried over from the search. *)
let check_whole_plausible problem patch =
  let ev = Cirfix.Evaluate.create Cirfix.Config.default problem in
  let o =
    Cirfix.Evaluate.eval_patch ev (Cirfix.Problem.target_module problem) patch
  in
  Alcotest.(check (float 0.)) "whole-design fitness" 1.0 o.fitness

let check_journal_sliced journal =
  Alcotest.(check bool) "slice record" true
    (contains journal "{\"type\":\"slice\"");
  Alcotest.(check bool) "stitched_verifies in run_end" true
    (contains journal "\"stitched_verifies\":")

let test_gp_sliced () =
  let problem = engaging_problem () in
  let run jobs =
    journaled (fun () -> Cirfix.Gp.repair (engaging_config ~jobs) problem)
  in
  let (r : Cirfix.Gp.result), j1 = run 1 in
  Alcotest.(check bool) "sliced" true r.sliced;
  Alcotest.(check bool) "stitched verifies" true (r.stitched_verifies >= 1);
  (match r.minimized with
  | None -> Alcotest.fail "GP found no repair"
  | Some patch -> check_whole_plausible problem patch);
  check_journal_sliced j1;
  let _, j2 = run 2 in
  Alcotest.(check string) "journal identical for jobs=1 and jobs=2" j1 j2

let test_brute_sliced () =
  let problem = engaging_problem () in
  let run jobs =
    journaled (fun () ->
        Cirfix.Brute_force.search ~max_depth:1 (engaging_config ~jobs) problem)
  in
  let (r : Cirfix.Brute_force.result), j1 = run 1 in
  Alcotest.(check bool) "sliced" true r.sliced;
  Alcotest.(check bool) "stitched verifies" true (r.stitched_verifies >= 1);
  (match r.repaired with
  | None -> Alcotest.fail "brute force found no repair"
  | Some patch -> check_whole_plausible problem patch);
  check_journal_sliced j1;
  let _, j2 = run 2 in
  Alcotest.(check string) "journal identical for jobs=1 and jobs=2" j1 j2

let () =
  Alcotest.run "slice"
    [
      ( "cones",
        [
          Alcotest.test_case "backward" `Quick test_backward_cone;
          Alcotest.test_case "write closure" `Quick test_write_closure;
          Alcotest.test_case "forward" `Quick test_forward_cone;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "backward slice" `Quick test_slice_extraction;
          Alcotest.test_case "focus promotion" `Quick test_focus_promotion;
        ] );
      ( "harness",
        [
          Alcotest.test_case "rewrite testbench" `Quick test_rewrite_testbench;
          Alcotest.test_case "replay items" `Quick test_replay_items;
        ] );
      ( "repair",
        [
          Alcotest.test_case "prepare engages" `Quick test_prepare_engages;
          Alcotest.test_case "prepare falls back" `Quick test_prepare_falls_back;
          Alcotest.test_case "gp on the slice" `Slow test_gp_sliced;
          Alcotest.test_case "brute force on the slice" `Slow test_brute_sliced;
        ] );
    ]

(* Slice-soundness sweep: a backward (focus-free) slice must be
   observationally identical to the whole design on its retained outputs.

   For every benchmark project x {tb, tb2} pair, and for every output
   port of the target module: seed a slice on that output (plus the
   testbench-read feedback outputs, which the stimulus depends on),
   extract the sliced module, rewrite the testbench for it, simulate,
   and compare the recorded trace against the whole-design trace
   restricted to the slice's retained outputs — byte-identical, via
   Recorder.to_string. Distinct outputs often share a cone, so plans are
   deduplicated by structural hash before simulating.

   This is the dynamic half of the slicing soundness argument (the
   static half being write closure, see lib/verilog/slice.mli): any
   discrepancy here means the cone construction lost a dependency.

   Usage: slice_equiv_run
   Sweeps every benchmark project; wired into `dune runtest`. *)

open Verilog.Ast

let find_module (d : design) (name : string) : module_decl =
  List.find (fun (m : module_decl) -> m.mod_id = name) d

let subst_module (d : design) ~(name : string) (m' : module_decl) : design =
  List.map (fun (m : module_decl) -> if m.mod_id = name then m' else m) d

let restrict (names : string list) (tr : Sim.Recorder.trace) :
    Sim.Recorder.trace =
  List.map
    (fun (s : Sim.Recorder.sample) ->
      { s with values = List.filter (fun (n, _) -> List.mem n names) s.values })
    tr

(* One project x testbench pair: returns (plans simulated, plans that
   dropped logic, failures). *)
let sweep_pair (p : Bench_suite.Projects.t) idx (tb_src : string) :
    int * int * int =
  let spec = Bench_suite.Projects.spec p in
  let src = Bench_suite.Projects.design_source p ^ "\n" ^ tb_src in
  let design = Verilog.Parser.parse_design src in
  let target = find_module design p.target in
  let tb = find_module design p.tb_module in
  let whole =
    match Sim.Simulate.run ~backend:Sim.Simulate.Event design spec with
    | Ok r -> r.trace
    | Error (Sim.Simulate.Elab_failure e) ->
        failwith (Printf.sprintf "%s tb%d: whole design: %s" p.name idx e)
  in
  let feedback =
    Verilog.Slice.tb_read_outputs ~tb ~inst:"dut" ~target
    |> Verilog.Slice.Names.elements
  in
  let seen = Hashtbl.create 8 in
  let simulated = ref 0 and partial = ref 0 and failures = ref 0 in
  List.iter
    (fun out ->
      let seed = List.sort_uniq compare (out :: feedback) in
      let plan = Verilog.Slice.slice ~design target ~outputs:seed in
      if plan.sl_promoted <> [] then begin
        (* Focus-free slices never promote; a cut point here is a bug. *)
        Printf.printf "FAIL %s tb%d %s: focus-free slice promoted %s\n%!"
          p.name idx out
          (String.concat "," plan.sl_promoted);
        incr failures
      end
      else if not (Hashtbl.mem seen plan.sl_hash) then begin
        Hashtbl.add seen plan.sl_hash ();
        incr simulated;
        if plan.sl_dropped <> [] then incr partial;
        let tb' =
          Verilog.Slice.rewrite_testbench ~tb ~inst:"dut" ~target plan
        in
        let sliced_design =
          subst_module
            (subst_module design ~name:p.target plan.sl_module)
            ~name:p.tb_module tb'
        in
        match
          Sim.Simulate.run ~backend:Sim.Simulate.Event sliced_design spec
        with
        | Error (Sim.Simulate.Elab_failure e) ->
            Printf.printf "FAIL %s tb%d %s: sliced design: %s\n%!" p.name idx
              out e;
            incr failures
        | Ok r ->
            let want =
              Sim.Recorder.to_string (restrict plan.sl_outputs whole)
            in
            let got = Sim.Recorder.to_string r.trace in
            if not (String.equal want got) then begin
              Printf.printf
                "FAIL %s tb%d %s: sliced trace differs (%d kept / %d dropped \
                 items)\n\
                 %!"
                p.name idx out
                (List.length plan.sl_kept)
                (List.length plan.sl_dropped);
              incr failures
            end
      end)
    (Verilog.Slice.output_ports target);
  (!simulated, !partial, !failures)

let () =
  let projects = Bench_suite.Projects.all in
  let simulated = ref 0 and partial = ref 0 and failures = ref 0 in
  Printf.printf "== slice trace equivalence (%d projects x 2 testbenches)\n%!"
    (List.length projects);
  List.iter
    (fun (p : Bench_suite.Projects.t) ->
      List.iteri
        (fun i tb ->
          let s, pa, f = sweep_pair p (i + 1) tb in
          simulated := !simulated + s;
          partial := !partial + pa;
          failures := !failures + f)
        [ Bench_suite.Projects.tb_source p; Bench_suite.Projects.tb2_source p ])
    projects;
  Printf.printf
    "slice-equiv: %d unique slices simulated (%d dropped logic), %d failures\n%!"
    !simulated !partial !failures;
  if !failures > 0 then exit 1

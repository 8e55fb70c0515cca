(* Benchmark of record for the CirFix repair engine.

     bash perfbench/run.sh --workload small-gp --seed 1 --seconds 40 --trace 0

   One process, one OCaml domain: every job runs on the main domain with
   [jobs = 1], one after another (a closed loop with one client). The
   workload fixes the jobs (scenario x GP seed) and their budgets, which
   come from [Runner.scenario_config] unchanged, and so is their order:
   every run does the same work, and every count a job produces repeats
   exactly (the determinism gate checks it). See README.md for the
   workloads and metric definitions.

   With [--trace 0] the last stdout line is a JSON object carrying the
   end-to-end metrics; with [--trace 1] it carries the per-layer metrics
   of a separate traced run, folded from Obs.Trace spans and the engine's
   result records. *)

open Bench_suite
open Perfbench

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* ---- Workloads ---------------------------------------------------------- *)

type engine = Gp | Brute

type workload = {
  name : string;
  engine : engine;
  journals : bool;  (** one journal per job, as `cirfix campaign` writes *)
  scenarios : int list;
  seeds : int;  (** GP seeds per scenario, counted from the seed base *)
}

let range a b = List.init (b - a + 1) (fun i -> a + i)

let workloads =
  [
    { name = "corpus"; engine = Gp; journals = true; scenarios = range 1 32; seeds = 1 };
    { name = "small-gp"; engine = Gp; journals = false; scenarios = range 1 17; seeds = 4 };
    { name = "brute"; engine = Brute; journals = true; scenarios = [ 3; 4; 9; 21; 27 ]; seeds = 1 };
  ]

type job = { defect : Defects.t; gp_seed : int }

let job_key j = Printf.sprintf "#%02d/s%d" j.defect.Defects.id j.gp_seed

(* Seed-major job list. The order is fixed: permuting it by the run seed
   moved where the GC's peak lands and made brute's peak RSS vary by 18%
   between runs. *)
let jobs_of (w : workload) ~seed_base : job list =
  List.concat_map
    (fun s ->
      List.map
        (fun id -> { defect = Defects.find id; gp_seed = seed_base + s })
        w.scenarios)
    (range 0 (w.seeds - 1))

(* ---- Set-up: every problem the workload uses ---------------------------- *)

type problems = (int, Cirfix.Problem.t * Cirfix.Problem.t) Hashtbl.t

let build_problems (w : workload) : problems =
  let t = Hashtbl.create 32 in
  List.iter
    (fun id ->
      let d = Defects.find id in
      Hashtbl.replace t id (Defects.problem d, Defects.validation_problem d))
    w.scenarios;
  t

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Set-up timings. One build takes 15-40 ms, and a shared host can switch
   between a fast and a slow speed every few seconds (README.md, "Noise"),
   so builds timed back to back all sample one moment of the host. Warm
   builds are therefore spread over the whole run: three right after the
   cold build, then one after every ceil(n/8)-th job run, for n jobs.
   [setup_s] is their
   median. The first, cold build is reported apart, so work moved into
   lazy first use still shows; its problems are the ones the jobs use. *)
type setup = { cold_s : float; mutable warm_s : float list; problems : problems }

let warm_build (w : workload) (s : setup) =
  let dt, _ = time (fun () -> build_problems w) in
  s.warm_s <- dt :: s.warm_s

let start_setup (w : workload) : setup =
  let cold_s, problems = time (fun () -> build_problems w) in
  let s = { cold_s; warm_s = []; problems } in
  for _ = 1 to 3 do warm_build w s done;
  s

(* ---- Jobs --------------------------------------------------------------- *)

type outcome =
  | Repaired of Cirfix.Patch.t
  | No_repair
  | Raised of string

type job_result = {
  job : job;
  wall : float;  (** until return, or until the exception *)
  outcome : outcome;
  wall_hit : bool;  (** ended on the scenario's [max_wall_seconds] *)
  counts : (string * int) list;  (** exact work counts; fixed by the job *)
  lane_s : float;
  sim_s : float;
  journal_bytes : int;
}

let gp_counts (r : Cirfix.Gp.result) =
  [
    ("sims", r.probes);
    ("lookups", r.lookups);
    ("memo_hits", r.memo_hits);
    ("compile_errors", r.compile_errors);
    ("static_rejects", r.static_rejects);
    ("oversize_rejects", r.oversize_rejects);
    ("racy_rejects", r.racy_rejects);
    ("semantic_hits", r.semantic_hits);
    ("dead_edit_skips", r.dead_edit_skips);
    ("sims_event", r.sims_event);
    ("sims_compiled", r.sims_compiled);
    ("compiled_fallbacks", r.compiled_fallbacks);
    ("generations", List.length r.generations);
    ("mutants", r.mutants_generated);
  ]

let brute_counts (r : Cirfix.Brute_force.result) =
  [
    ("sims", r.probes);
    ("lookups", r.lookups);
    ("memo_hits", r.memo_hits);
    ("compile_errors", r.compile_errors);
    ("static_rejects", r.static_rejects);
    ("oversize_rejects", r.oversize_rejects);
    ("racy_rejects", r.racy_rejects);
    ("semantic_hits", r.semantic_hits);
    ("dead_edit_skips", r.dead_edit_skips);
    ("sims_event", r.sims_event);
    ("sims_compiled", r.sims_compiled);
    ("compiled_fallbacks", r.compiled_fallbacks);
    ("candidates", r.candidates_tried);
  ]

let job_config (j : job) =
  { (Runner.scenario_config j.defect) with Cirfix.Config.seed = j.gp_seed; jobs = 1 }

let out_dir = ".perfbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then (
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

let run_job ?(around = fun f -> f ()) (w : workload) (problems : problems)
    (j : job) : job_result =
  let problem, _ = Hashtbl.find problems j.defect.Defects.id in
  let cfg = job_config j in
  let journal =
    if not w.journals then None
    else
      let dir = Filename.concat out_dir ("journals-" ^ w.name) in
      mkdir_p dir;
      Some
        (Filename.concat dir
           (Printf.sprintf "journal-%02d-s%d.jsonl" j.defect.Defects.id j.gp_seed))
  in
  let search () =
    match w.engine with
    | Gp ->
        let r = Cirfix.Gp.repair cfg problem in
        ( (match r.minimized with Some p -> Repaired p | None -> No_repair),
          r.wall_seconds,
          gp_counts r,
          r.lane_seconds,
          r.sim_seconds_event +. r.sim_seconds_compiled )
    | Brute ->
        let r = Cirfix.Brute_force.search ~max_depth:2 cfg problem in
        ( (match r.repaired with Some p -> Repaired p | None -> No_repair),
          r.wall_seconds,
          brute_counts r,
          0.,
          r.sim_seconds_event +. r.sim_seconds_compiled )
  in
  (* Collect the garbage of earlier jobs and set-up builds outside the
     job's timing, so no job pays for the jobs before it. *)
  Gc.compact ();
  let wall, res =
    around (fun () ->
        time (fun () ->
            try
              Ok
                (match journal with
                | None -> search ()
                | Some path -> Obs.Journal.with_file path search)
            with e -> Error (Printexc.to_string e)))
  in
  let journal_bytes =
    match journal with
    | Some path when Sys.file_exists path -> (Unix.stat path).Unix.st_size
    | _ -> 0
  in
  match res with
  | Error msg ->
      { job = j; wall; outcome = Raised msg; wall_hit = false; counts = [];
        lane_s = 0.; sim_s = 0.; journal_bytes }
  | Ok (outcome, engine_wall, counts, lane_s, sim_s) ->
      {
        job = j;
        wall;
        outcome;
        wall_hit = outcome = No_repair && engine_wall >= cfg.max_wall_seconds;
        counts;
        lane_s;
        sim_s;
        journal_bytes;
      }

(* The job's fixed work, as one line: two runs of the same job must print
   the same line, or the work is no longer fixed. *)
let fingerprint (r : job_result) : string =
  let outcome =
    match r.outcome with
    | Repaired p -> "repaired " ^ Cirfix.Patch.to_string p
    | No_repair -> if r.wall_hit then "wall-budget" else "no-repair"
    | Raised msg -> "raised " ^ msg
  in
  String.concat " "
    (job_key r.job
    :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.counts
    @ [ String.escaped outcome ])

(* ---- Re-verification, outside the repair engine ------------------------- *)

(* A reported patch re-verifies when, applied to the faulty target, it
   scores fitness 1.0 on a fresh evaluator with the event backend and the
   pruning lanes off; it is correct when it also does so on the held-out
   validation testbench. *)
let reverify (problems : problems) (r : job_result) : (bool * bool) option =
  match r.outcome with
  | No_repair | Raised _ -> None
  | Repaired patch ->
      let problem, validation = Hashtbl.find problems r.job.defect.Defects.id in
      let m = Cirfix.Patch.apply (Cirfix.Problem.target_module problem) patch in
      let cfg =
        { (job_config r.job) with backend = Sim.Simulate.Event; prune = false }
      in
      let passes p =
        let o = Cirfix.Evaluate.eval_module (Cirfix.Evaluate.create cfg p) m in
        o.status = Cirfix.Evaluate.Simulated && o.fitness >= 1.0
      in
      let plausible = (try passes problem with _ -> false) in
      Some (plausible, plausible && (try passes validation with _ -> false))

(* ---- Tracing ------------------------------------------------------------ *)

(* Run [f] as one benchmark span in its own trace session and fold the
   session's events into [fold]; sessions stay one job long, so the trace
   buffer never holds more than one job's events. *)
let traced (fold : Trace_fold.t) (name : string) (f : unit -> 'a) : 'a =
  Obs.Trace.start ();
  let t = Obs.Trace.begin_ () in
  let r = f () in
  Obs.Trace.complete ~cat:"bench" ~name t;
  (match Obs.Trace.stop () with
  | Some doc -> (
      match Trace_fold.add_document fold doc with
      | Ok () -> ()
      | Error e -> failwith ("trace fold: " ^ e))
  | None -> ());
  r

(* ---- Host reference ----------------------------------------------------- *)

(* A fixed kernel that touches none of the program: integer mixing over a
   small array plus short-lived allocation, about a quarter second. Timed
   at the start and end of every run to tell host drift from a program
   change; it gates nothing. *)
let host_ref () : float =
  let dt, _ =
    time (fun () ->
        let a = Array.make 4096 0 in
        let acc = ref 0 in
        for i = 1 to 90_000_000 do
          let j = (i * 7919) land 4095 in
          a.(j) <- a.(j) + i;
          acc := !acc lxor a.(i land 4095)
        done;
        let l = ref [] in
        for i = 1 to 6_000_000 do
          l := i :: (if i land 1023 = 0 then [] else !l)
        done;
        (!acc, List.length !l))
  in
  dt

(* ---- Metrics ------------------------------------------------------------ *)

let peak_rss_mb () : float =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* The highest percentile with at least ten jobs beyond it: rank n - 10 of
   n sorted job times (p68 of 32, p85 of 68). With ten jobs or fewer no
   such percentile exists and the slowest job is reported. *)
let tail (xs : float list) : float * string =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n > 10 then (a.(n - 11), Printf.sprintf "p%d" (100 * (n - 10) / n))
  else (a.(n - 1), "max")

let sum f rs = List.fold_left (fun acc r -> acc +. f r) 0. rs
let count_of key r = Option.value ~default:0 (List.assoc_opt key r.counts)
let total key rs = List.fold_left (fun acc r -> acc + count_of key r) 0 rs
let ratio a b = if b = 0. then 0. else a /. b

let failed_job (verified : (job_result * (bool * bool) option) list) r =
  match r.outcome with
  | Raised _ -> true
  | _ when r.wall_hit -> true
  | Repaired _ -> (
      match List.assq_opt r verified with Some (Some (ok, _)) -> not ok | _ -> true)
  | No_repair -> false

(* ---- Determinism gate --------------------------------------------------- *)

(* Fingerprints of every job, sorted by job key. *)
let fingerprints rs =
  List.map fingerprint rs |> List.sort compare

(* The first run of a workload in a checkout records its fingerprints,
   keyed by the benchmark binary's digest; every later run of the same
   binary must reproduce them. *)
let check_recorded (w : workload) ~seed_base (fps : string list) :
    (unit, string) result =
  let exe = Digest.to_hex (Digest.file Sys.executable_name) in
  let path =
    Filename.concat out_dir
      (Printf.sprintf "counts-%s-g%d-%s.txt" w.name seed_base exe)
  in
  let body = String.concat "\n" fps ^ "\n" in
  if Sys.file_exists path then
    let recorded = In_channel.with_open_bin path In_channel.input_all in
    if recorded = body then Ok ()
    else
      let old = String.split_on_char '\n' recorded in
      let first = List.find_opt (fun l -> not (List.mem l old)) fps in
      Error
        (Printf.sprintf "counts differ from the run recorded in %s: %s" path
           (Option.value first ~default:"(job set differs)"))
  else (
    mkdir_p out_dir;
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc -> output_string oc body);
    Sys.rename tmp path;
    Ok ())

(* Every run of a job must repeat its first run. *)
let check_repeats (runs : job_result list list) : (unit, string) result =
  match
    List.find_map
      (fun rs ->
        let first = fingerprint (List.hd rs) in
        List.find_opt (fun r -> fingerprint r <> first) rs)
      runs
  with
  | None -> Ok ()
  | Some r -> Error ("two runs of the same job differ: " ^ fingerprint r)

(* ---- Runs --------------------------------------------------------------- *)

(* The untraced runs. Every job runs once, in list order; then passes over
   the list re-run each job whose runs so far add up to less than its
   share of [seconds] (that is, [seconds] over the number of jobs), until
   it has run [max_runs] times. Short jobs thus run many times, spread
   over the run, and long ones once. Returns each job's runs, oldest
   first. *)
let max_runs = 10

let timed_runs w (s : setup) jobs ~seconds : job_result list list =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let share = float_of_int seconds /. float_of_int n in
  let runs = Array.make n [] in
  let step = (n + 7) / 8 and count = ref 0 in
  let is_open i =
    runs.(i) = []
    || (List.length runs.(i) < max_runs && sum (fun r -> r.wall) runs.(i) < share)
  in
  let rec passes () =
    let todo = List.filter is_open (List.init n Fun.id) in
    if todo <> [] then (
      List.iter
        (fun i ->
          runs.(i) <- run_job w s.problems jobs.(i) :: runs.(i);
          incr count;
          if !count mod step = 0 then warm_build w s)
        todo;
      passes ())
  in
  passes ();
  Array.to_list (Array.map List.rev runs)

(* The traced run: each job once untraced, then at once again traced, so
   the two runs of a job see the same host speed as nearly as possible. *)
let paired_runs fold w problems jobs : job_result list list =
  List.map
    (fun j ->
      let u = run_job w problems j in
      [ u; run_job ~around:(traced fold "bench.job") w problems j ])
    jobs

(* Each job's time: the median over its runs. A shared host can switch
   between a fast and a slow speed every few seconds (README.md, "Noise"),
   and a job shorter than that runs entirely in one of them. Its runs are
   spread over the run, so their median is the job's time at the host's
   usual speed; a minimum would instead depend on whether a rare fast
   stretch happened to catch one of them. *)
let job_wall (rs : job_result list) : float = median (List.map (fun r -> r.wall) rs)

(* ---- Main --------------------------------------------------------------- *)

let metric name unit v =
  (name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.Str unit) ])

let usage () =
  prerr_endline
    "usage: main.exe --workload (corpus|small-gp|brute) --seed N --seconds S \
     --trace (0|1) [--gp-seed-base N]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 40 in
  let trace = ref 0 and seed_base = ref 1 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N recorded; the workload's inputs are fixed");
      ("--seconds", Arg.Set_int seconds, "S untraced runs: short jobs re-run until each has had S / jobs seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--gp-seed-base", Arg.Set_int seed_base, "N first GP seed (default 1)");
    ]
    (fun _ -> usage ())
    "perfbench";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !trace <> 0 && !trace <> 1 then usage ();
  let traced_run = !trace = 1 in
  let ref_start = host_ref () in
  let setup = start_setup w in
  let problems = setup.problems in
  let fold = Trace_fold.create () in
  if traced_run then ignore (traced fold "bench.setup" (fun () -> build_problems w));
  let jobs = jobs_of w ~seed_base:!seed_base in
  let runs =
    if traced_run then paired_runs fold w problems jobs
    else timed_runs w setup jobs ~seconds:!seconds
  in
  (* Outcomes and counts are the same in every run of a job (the gate
     checks it); the last run is the traced one in a traced run. *)
  let results = List.map (fun rs -> List.nth rs (List.length rs - 1)) runs in
  let verified =
    List.map
      (fun r ->
        let check () = reverify problems r in
        (r, if traced_run then traced fold "bench.reverify" check else check ()))
      results
  in
  let gate =
    Result.bind (check_repeats runs) (fun () ->
        check_recorded w ~seed_base:!seed_base (fingerprints results))
  in
  let ref_end = host_ref () in
  let n = List.length results in
  let failed = List.filter (failed_job verified) results in
  let repaired =
    List.length (List.filter (fun r -> match r.outcome with Repaired _ -> true | _ -> false) results)
  in
  let correct =
    List.length
      (List.filter (fun (_, v) -> match v with Some (true, true) -> true | _ -> false) verified)
  in
  let reverify_failures =
    List.filter (fun (_, v) -> match v with Some (false, _) -> true | _ -> false) verified
  in
  let walls = List.map job_wall runs in
  let wall_s = List.fold_left ( +. ) 0. walls in
  let tail_s, tail_name = tail walls in
  (* Human-readable record of the run, above the result line. *)
  Printf.printf "workload %s: %d jobs, %d job runs in %.3f s, run seed %d, GP seed base %d, %s\n"
    w.name n
    (List.fold_left (fun a rs -> a + List.length rs) 0 runs)
    (List.fold_left (fun a rs -> a +. sum (fun r -> r.wall) rs) 0. runs)
    !seed !seed_base
    (if traced_run then "traced" else "untraced");
  Printf.printf "host.ref_s start %.4f end %.4f\n" ref_start ref_end;
  Printf.printf "setup: cold %.4f s, %d warm builds\n" setup.cold_s
    (List.length setup.warm_s);
  Printf.printf "job_s_tail is %s of %d jobs\n" tail_name n;
  List.iter2
    (fun r rs ->
      Printf.printf "job %s %-22s %8.4f s  %2d runs  %s\n" (job_key r.job)
        r.job.defect.Defects.project (job_wall rs) (List.length rs)
        (match r.outcome with
        | Repaired p -> Printf.sprintf "repaired, %d edits" (List.length p)
        | No_repair -> if r.wall_hit then "wall budget" else "no repair"
        | Raised _ -> "raised"))
    results runs;
  List.iter
    (fun r ->
      let why =
        match r.outcome with
        | Raised msg -> msg
        | _ when r.wall_hit -> "wall budget"
        | _ -> "repair does not re-verify"
      in
      Printf.printf "failed %s %s: %s\n" (job_key r.job) r.job.defect.Defects.project why)
    failed;
  (match gate with Ok () -> () | Error e -> Printf.printf "determinism gate: %s\n" e);
  let metrics =
    if not traced_run then
      [
        metric "wall_s" "s" wall_s;
        metric "setup_s" "s" (median setup.warm_s);
        metric "job_s_p50" "s" (median walls);
        metric "job_s_tail" "s" tail_s;
        metric "repaired" "count" (float_of_int repaired);
        metric "correct" "count" (float_of_int correct);
        metric "ok_share" "ratio" (float_of_int (n - List.length failed) /. float_of_int n);
        metric "peak_rss_mb" "MiB" (peak_rss_mb ());
      ]
    else
      let self = Trace_fold.self_s fold in
      let cnt name = float_of_int (Trace_fold.count fold name) in
      let tot key = float_of_int (total key results) in
      let untraced_wall = sum (fun rs -> (List.hd rs).wall) runs in
      let traced_wall = sum (fun r -> r.wall) results in
      let lookups = tot "lookups" and sims = tot "sims" in
      let sim_s = sum (fun r -> r.sim_s) results in
      let lane_hits = tot "semantic_hits" +. tot "dead_edit_skips" in
      [
        metric "gp.propose.self_s" "s" (self "gp.propose");
        metric "gp.select.self_s" "s" (self "gp.select");
        metric "gp.minimize.self_s" "s" (self "gp.minimize");
        metric "brute.chunk.self_s" "s" (self "brute.chunk");
        metric "lanes.s" "s" (sum (fun r -> r.lane_s) results);
        metric "lanes.hits" "count" lane_hits;
        metric "lanes.hit_rate" "ratio" (ratio lane_hits lookups);
        metric "evaluate.self_s" "s" (self "evaluate");
        metric "eval.prepare_batch.self_s" "s" (self "eval.prepare_batch");
        metric "screen.static.self_s" "s" (self "screen.static");
        metric "screen.rejects" "count" (tot "static_rejects");
        metric "sim.elaborate.self_s" "s" (self "sim.elaborate");
        metric "sim.elaborate.count" "count" (cnt "sim.elaborate");
        metric "sim.run.self_s" "s" (self "sim.run");
        metric "sim.s" "s" sim_s;
        metric "sim.us_per_sim" "us" (1e6 *. ratio sim_s sims);
        metric "problem.parse.self_s" "s" (self "parse");
        metric "problem.golden_sim.self_s" "s" (self "golden_sim");
        metric "setup.cold_s" "s" setup.cold_s;
        metric "eval.sims" "count" sims;
        metric "eval.lookups" "count" lookups;
        metric "eval.memo_hits" "count" (tot "memo_hits");
        metric "eval.memo_hit_rate" "ratio" (ratio (tot "memo_hits") lookups);
        metric "eval.sim_yield" "ratio" (ratio sims lookups);
        metric "eval.compile_errors" "count" (tot "compile_errors");
        metric "eval.oversize_rejects" "count" (tot "oversize_rejects");
        metric "sim.compiled" "count" (tot "sims_compiled");
        metric "sim.fallbacks" "count" (tot "compiled_fallbacks");
        metric "gp.mutants" "count" (tot "mutants");
        metric "gp.generations" "count" (tot "generations");
        metric "brute.candidates" "count" (tot "candidates");
        metric "journal.bytes" "B" (float_of_int (List.fold_left (fun a r -> a + r.journal_bytes) 0 results));
        metric "bench.reverify.self_s" "s" (self "bench.reverify");
        metric "trace.coverage" "ratio" (Trace_fold.coverage fold ~root:"bench.job");
        metric "trace.overhead" "ratio" (ratio traced_wall untraced_wall -. 1.);
        metric "trace.lost_spans" "count" (float_of_int (Trace_fold.lost_spans fold));
        metric "host.ref_s" "s" ((ref_start +. ref_end) /. 2.);
      ]
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (Result.is_ok gate && reverify_failures = []));
            ("attempted", Obs.Json.Int n);
            ("failed", Obs.Json.Int (List.length failed));
            ("metrics", Obs.Json.Obj metrics);
          ]))

(* The trace fold over a hand-written Chrome trace: nesting on one
   thread, a second domain whose spans overlap the first in time, an
   unclosed "B" event, and a crashed generation whose gp.select was never
   completed. Times are microseconds. *)

open Perfbench

let x ?(tid = 0) name ts dur =
  Printf.sprintf
    {|{"name":"%s","cat":"t","ph":"X","ts":%g,"dur":%g,"pid":1,"tid":%d}|} name
    ts dur tid

let b ?(tid = 0) name ts =
  Printf.sprintf {|{"name":"%s","cat":"t","ph":"B","ts":%g,"pid":1,"tid":%d}|}
    name ts tid

let e ?(tid = 0) ts = Printf.sprintf {|{"ph":"E","ts":%g,"pid":1,"tid":%d}|} ts tid

let doc =
  Printf.sprintf {|{"traceEvents":[%s],"displayTimeUnit":"ms"}|}
    (String.concat ",\n"
       [
         {|{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"cirfix"}}|};
         (* Events are emitted at completion, so children come first. *)
         x "sim.elaborate" 12. 5.;
         x "gp.propose" 10. 20.;
         x "sim.run" 36. 8.;
         x "evaluate" 35. 10.;
         x "gp.select" 30. 30.;
         (* The next generation proposes, then raises inside selection:
            its gp.select is never completed. *)
         x "gp.propose" 70. 10.;
         x "bench.job" 0. 100.;
         b "bench.reverify" 100.;
         x "evaluate" 102. 4.;
         e 110.;
         (* A second domain, overlapping bench.job in time. *)
         x ~tid:1 "sim.run" 6. 20.;
         x ~tid:1 "pool.task" 5. 50.;
         b ~tid:1 "pool.worker" 60.;
         (* A stray E with nothing open is dropped. *)
         e ~tid:2 61.;
       ])

let fold () =
  let t = Trace_fold.create () in
  (match Trace_fold.add_document t doc with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  t

let close = Alcotest.float 1e-9

let test_self_times () =
  let t = fold () in
  let self n = Trace_fold.self_s t n *. 1e6 in
  Alcotest.check close "bench.job self" 40. (self "bench.job");
  Alcotest.check close "gp.propose self" 25. (self "gp.propose");
  Alcotest.check close "gp.select self" 20. (self "gp.select");
  Alcotest.check close "evaluate self, both sessions" 6. (self "evaluate");
  Alcotest.check close "sim.run self, both domains" 28. (self "sim.run");
  Alcotest.check close "pool.task does not nest under bench.job" 30.
    (self "pool.task");
  Alcotest.check close "B/E pair" 6. (self "bench.reverify");
  Alcotest.check close "B/E total" 10.
    (Trace_fold.total_s t "bench.reverify" *. 1e6);
  Alcotest.(check int) "unclosed B has no span" 0 (Trace_fold.count t "pool.worker")

let test_lost_and_coverage () =
  let t = fold () in
  Alcotest.(check int) "unmatched B" 1 t.unmatched;
  Alcotest.(check int) "missing gp.select plus unmatched B" 2
    (Trace_fold.lost_spans t);
  (* The crashed generation's uncovered time stays in bench.job's self
     time: 60 of 100 us are under program spans. *)
  Alcotest.check close "coverage" 0.6 (Trace_fold.coverage t ~root:"bench.job")

let test_accumulates () =
  let t = fold () in
  ignore (Trace_fold.add_document t doc);
  Alcotest.(check int) "two documents" 4 (Trace_fold.count t "gp.propose");
  Alcotest.check close "coverage unchanged" 0.6
    (Trace_fold.coverage t ~root:"bench.job");
  Alcotest.(check bool) "malformed document" true
    (Result.is_error (Trace_fold.add_document t "{"))

let () =
  Alcotest.run "perfbench"
    [
      ( "trace fold",
        [
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "lost spans and coverage" `Quick test_lost_and_coverage;
          Alcotest.test_case "accumulates" `Quick test_accumulates;
        ] );
    ]

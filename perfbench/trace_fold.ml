(* Fold a Chrome trace-event document (the format Obs.Trace renders) into
   per-span-name totals: count, inclusive time and self time. Self time is
   a span's duration minus the part of its interval that its direct
   children cover; nesting is recovered per thread (tid) from timestamps,
   so spans of different domains never nest into each other.

   "X" events are complete spans. "B"/"E" events are paired per thread; a
   "B" that is never closed has no end, so its time cannot be charged to
   anything and it is only counted in [unmatched]. An "E" with nothing
   open is dropped. *)

type span = { name : string; tid : int; ts : float; dur : float }

type stat = { count : int; total_us : float; self_us : float }

type t = {
  stats : (string, stat) Hashtbl.t;
  mutable unmatched : int;  (** "B" events never closed by an "E" *)
}

let create () = { stats = Hashtbl.create 32; unmatched = 0 }

let stat (t : t) (name : string) : stat =
  Option.value (Hashtbl.find_opt t.stats name)
    ~default:{ count = 0; total_us = 0.; self_us = 0. }

let count t name = (stat t name).count
let total_s t name = (stat t name).total_us /. 1e6
let self_s t name = (stat t name).self_us /. 1e6

let num key ev = Option.bind (Obs.Json.member key ev) Obs.Json.to_float_opt

(* Complete spans plus the number of unclosed "B" events. *)
let spans_of_events (events : Obs.Json.t list) : span list * int =
  let open_b : (int, (string * float) list) Hashtbl.t = Hashtbl.create 4 in
  let spans = ref [] in
  List.iter
    (fun ev ->
      let ph = Option.bind (Obs.Json.member "ph" ev) Obs.Json.to_string_opt in
      let name =
        Option.value ~default:""
          (Option.bind (Obs.Json.member "name" ev) Obs.Json.to_string_opt)
      in
      let tid =
        Option.value ~default:0
          (Option.bind (Obs.Json.member "tid" ev) Obs.Json.to_int_opt)
      in
      match (ph, num "ts" ev) with
      | Some "X", Some ts ->
          let dur = Option.value ~default:0. (num "dur" ev) in
          spans := { name; tid; ts; dur } :: !spans
      | Some "B", Some ts ->
          let stack = Option.value ~default:[] (Hashtbl.find_opt open_b tid) in
          Hashtbl.replace open_b tid ((name, ts) :: stack)
      | Some "E", Some te -> (
          match Hashtbl.find_opt open_b tid with
          | Some ((name, ts) :: rest) ->
              Hashtbl.replace open_b tid rest;
              spans := { name; tid; ts; dur = te -. ts } :: !spans
          | Some [] | None -> ())
      | _ -> ())
    events;
  let unmatched =
    Hashtbl.fold (fun _ stack acc -> acc + List.length stack) open_b 0
  in
  (List.rev !spans, unmatched)

let add (t : t) (spans : span list) =
  let by_tid : (int, span list) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  Hashtbl.iter
    (fun _ spans ->
      (* Parents sort before their children: earlier start first, and on
         equal starts the longer span first. *)
      let arr = Array.of_list spans in
      Array.sort
        (fun a b ->
          match compare a.ts b.ts with 0 -> compare b.dur a.dur | c -> c)
        arr;
      let covered = Array.make (Array.length arr) 0. in
      let stack = ref [] in
      Array.iteri
        (fun i s ->
          let rec unwind = function
            | j :: rest when arr.(j).ts +. arr.(j).dur <= s.ts -> unwind rest
            | st -> st
          in
          stack := unwind !stack;
          (match !stack with
          | p :: _ ->
              let p_end = arr.(p).ts +. arr.(p).dur in
              covered.(p) <- covered.(p) +. (Float.min p_end (s.ts +. s.dur) -. s.ts)
          | [] -> ());
          stack := i :: !stack)
        arr;
      Array.iteri
        (fun i s ->
          let st = stat t s.name in
          Hashtbl.replace t.stats s.name
            {
              count = st.count + 1;
              total_us = st.total_us +. s.dur;
              self_us = st.self_us +. Float.max 0. (s.dur -. covered.(i));
            })
        arr)
    by_tid

(* Fold one rendered trace document into [t]. *)
let add_document (t : t) (doc : string) : (unit, string) result =
  match Obs.Json.parse doc with
  | Error e -> Error e
  | Ok json -> (
      match Obs.Json.member "traceEvents" json with
      | Some (Obs.Json.List events) ->
          let spans, unmatched = spans_of_events events in
          add t spans;
          t.unmatched <- t.unmatched + unmatched;
          Ok ()
      | _ -> Error "no traceEvents array")

(* Spans lost to a crash: a generation that raises after [gp.propose]
   completes never completes its [gp.select], and an unclosed "B" event
   never ends. *)
let lost_spans (t : t) : int =
  count t "gp.propose" - count t "gp.select" + t.unmatched

(* Share of [root] span time spent under any child span: 1 minus the
   roots' self share. Time of a crashed generation, whose spans were never
   completed, stays in the root's self time and so counts as uncovered. *)
let coverage (t : t) ~(root : string) : float =
  let st = stat t root in
  if st.total_us <= 0. then 0. else 1. -. (st.self_us /. st.total_us)

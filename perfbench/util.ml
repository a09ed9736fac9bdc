(* Timing, summary statistics and the result line shared by the
   workloads and the isolated layer probes. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The fastest of several raw timings of identical work: co-tenant load
   only ever adds time.  Used for the per-layer wall figures; the
   end-to-end times are rescaled instead (see [normalise]). *)
let best = List.fold_left Float.min infinity

(* Host-speed normalisation.  On the shared 2-vCPU VM the benchmark was
   built on, co-tenants slow the core by up to 1.9x, for stretches that
   can outlast a whole run, so no estimator over raw wall times (not
   even the fastest repeat) agrees between runs.  A fixed Stdlib-only
   kernel (hashing, list building and sorting, about 1 ms on an
   unloaded core there) is timed right before and right after each
   timed piece of work, and the piece's wall time is rescaled to the
   kernel's nominal [reference_s]: a slowdown that hits both cancels.
   The kernel uses none of the repository's code, so a change to the
   program moves the rescaled time as much as the raw one. *)
let reference_s = 1e-3

let reference_kernel () =
  let h = Hashtbl.create 64 in
  for i = 0 to 3999 do
    Hashtbl.replace h ((i * 7919) land 1023) (i, string_of_int i)
  done;
  let l = List.sort compare (List.init 4000 (fun i -> (i * 2654435761) land 0xffff)) in
  let acc = ref 0 in
  List.iter (fun x -> acc := !acc + x) l;
  Hashtbl.iter (fun k (v, s) -> acc := !acc + k + v + String.length s) h;
  ignore (Sys.opaque_identity !acc)

(* Mean seconds per kernel run over [runs] back-to-back runs. *)
let time_reference ?(runs = 1) () =
  snd (timed (fun () -> for _ = 1 to runs do reference_kernel () done))
  /. float_of_int runs

(* [wall] rescaled by the mean of the kernel times [before] and
   [after] it. *)
let normalise ~before ~after wall = wall *. reference_s /. ((before +. after) /. 2.)

let fold1 f = function
  | [] -> invalid_arg "fold1: empty list"
  | x :: rest -> List.fold_left f x rest

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Median nanoseconds per operation of [run], which performs [ops]
   operations on the state [setup] builds (untimed).  One untimed
   warm-up call, then batches until [budget] seconds have passed (at
   least five). *)
let ns_per_op ?(budget = 0.15) ~ops ~setup run =
  run (setup ());
  let samples = ref [] and count = ref 0 in
  let stop = now () +. budget in
  while !count < 5 || now () < stop do
    let state = setup () in
    let (), dt = timed (fun () -> run state) in
    samples := (dt *. 1e9 /. float_of_int ops) :: !samples;
    incr count
  done;
  median !samples

(* Peak number of messages in flight in one recorded run: sends open a
   flow, deliveries and bounces close it, and a message lost to a dead
   destination leaves a "lost" instant instead. *)
let peak_in_flight obs =
  let current = ref 0 and peak = ref 0 in
  Obs.iter obs (fun (ev : Obs.event) ->
      match ev.kind with
      | Obs.Flow_start ->
          incr current;
          if !current > !peak then peak := !current
      | Flow_end -> decr current
      | Instant when String.equal ev.name "lost" && String.equal ev.cat "net" ->
          decr current
      | Instant | Span_begin | Span_end -> ());
  !peak

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Allocation and collection counters over one call of [f]. *)
type gc_delta = { alloc_bytes : float; minor : int; major : int }

let no_gc = { alloc_bytes = 0.; minor = 0; major = 0 }

let add_gc a b =
  { alloc_bytes = a.alloc_bytes +. b.alloc_bytes; minor = a.minor + b.minor; major = a.major + b.major }

let gc_delta f =
  let s0 = Gc.quick_stat () and a0 = Gc.allocated_bytes () in
  let r = f () in
  let s1 = Gc.quick_stat () and a1 = Gc.allocated_bytes () in
  ( r,
    {
      alloc_bytes = a1 -. a0;
      minor = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major = s1.Gc.major_collections - s0.Gc.major_collections;
    } )

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last line of standard output, as the benchmark contract fixes
   it. *)
let result_line ~correct ~attempted ~failed metrics =
  let field m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
      (json_number m.value) m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field metrics))

(* Bucket-wise sum of several flat profiles (one per soak epoch). *)
let sum_profiles (reports : Prof.report list) =
  match reports with
  | [] -> { Prof.rows = []; total_seconds = 0. }
  | first :: _ ->
      let rows =
        List.map
          (fun (row : Prof.row) ->
            let same (r : Prof.row) = String.equal r.row_bucket row.row_bucket in
            let all = List.concat_map (fun (p : Prof.report) -> List.filter same p.rows) reports in
            {
              row with
              Prof.row_seconds = List.fold_left (fun a (r : Prof.row) -> a +. r.row_seconds) 0. all;
              row_entries = List.fold_left (fun a (r : Prof.row) -> a + r.row_entries) 0 all;
            })
          first.Prof.rows
      in
      {
        Prof.rows;
        total_seconds =
          List.fold_left (fun a (p : Prof.report) -> a +. p.total_seconds) 0. reports;
      }

let bucket_seconds (r : Prof.report) name =
  match List.find_opt (fun (row : Prof.row) -> String.equal row.row_bucket name) r.rows with
  | Some row -> row.row_seconds
  | None -> 0.

module Int_map = Map.Make (Int)

(* Tids are dense ints: hash them as themselves. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash t = t land max_int
end)

type t = {
  mutable wal : Wal.record list;
      (* reversed; stable; the records since the last checkpoint *)
  mutable wal_length : int;
  mutable next_checkpoint : int;  (* [wal_length] that triggers one *)
  db : Kv.t;  (* stable *)
  mutable volatile_staged : Wal.update list Int_map.t;
  index :
    [ `Active | `Prepared | `Committed | `Aborted | `Ended ] Int_tbl.t;
      (* last status-bearing record per tid, kept in lockstep with
         [wal]; makes [status] O(1) on long-lived sites *)
}

type recovery_report = {
  redone : int list;
  in_doubt : int list;
  aborted : int list;
}

(* A log shorter than this is never checkpointed, so short histories
   keep every record. *)
let checkpoint_floor = 64

let create () =
  {
    wal = [];
    wal_length = 0;
    next_checkpoint = checkpoint_floor;
    db = Kv.create ();
    volatile_staged = Int_map.empty;
    index = Int_tbl.create 64;
  }

let finished t tid =
  match Int_tbl.find_opt t.index tid with
  | Some (`Ended | `Aborted) -> true
  | Some (`Active | `Prepared | `Committed) | None -> false

(* The paper's Section 2 rule: a transaction with an [End] (or abort)
   record needs its log no more, so a checkpoint drops those tids'
   records and keeps the rest in order.  Taken once the log has
   doubled since the previous checkpoint, it costs O(1) amortised per
   append.  It runs before the new record lands, so the log is never
   empty after an append. *)
let checkpoint t =
  t.wal <- List.filter (fun r -> not (finished t (Wal.tid_of r))) t.wal;
  t.wal_length <- List.length t.wal;
  t.next_checkpoint <- max checkpoint_floor (2 * t.wal_length)

let append t record =
  if t.wal_length >= t.next_checkpoint then checkpoint t;
  t.wal <- record :: t.wal;
  t.wal_length <- t.wal_length + 1;
  match record with
  | Wal.Stage _ -> ()  (* staging does not change the tid's status *)
  | Wal.Begin { tid } -> Int_tbl.replace t.index tid `Active
  | Wal.Prepared { tid } -> Int_tbl.replace t.index tid `Prepared
  | Wal.Commit_log { tid; _ } -> Int_tbl.replace t.index tid `Committed
  | Wal.Abort_log { tid } -> Int_tbl.replace t.index tid `Aborted
  | Wal.End { tid } -> Int_tbl.replace t.index tid `Ended

let wal_records t = List.rev t.wal

let status t ~tid =
  match Int_tbl.find_opt t.index tid with
  | Some s -> (s :> [ `Unknown | `Active | `Prepared | `Committed | `Aborted | `Ended ])
  | None -> `Unknown

let begin_transaction t ~tid =
  match status t ~tid with
  | `Unknown -> append t (Wal.Begin { tid })
  | `Active | `Prepared | `Committed | `Aborted | `Ended ->
      invalid_arg (Printf.sprintf "Durable_site: tid %d already known" tid)

let require t ~tid expected =
  let got = status t ~tid in
  if not (List.mem got expected) then
    invalid_arg
      (Printf.sprintf "Durable_site: tid %d in unexpected state" tid)

let staged t ~tid =
  match Int_map.find_opt tid t.volatile_staged with
  | Some updates -> updates
  | None -> []

let stage t ~tid updates =
  require t ~tid [ `Active; `Prepared ];
  t.volatile_staged <- Int_map.add tid updates t.volatile_staged;
  (* Once prepared the staged buffer must survive a crash: the group may
     still commit while this site is in doubt, and the volatile copy is
     exactly what a crash destroys. *)
  if status t ~tid = `Prepared && updates <> [] then
    append t (Wal.Stage { tid; updates })

let prepare t ~tid =
  require t ~tid [ `Active ];
  (match staged t ~tid with
  | [] -> ()
  | updates -> append t (Wal.Stage { tid; updates }));
  append t (Wal.Prepared { tid })

let apply_updates t updates = List.iter (fun (u : Wal.update) -> Kv.set t.db ~key:u.key ~value:u.value) updates

let crash t = t.volatile_staged <- Int_map.empty

let commit t ?crash_after ~tid () =
  require t ~tid [ `Active; `Prepared ];
  let updates = staged t ~tid in
  append t (Wal.Commit_log { tid; updates });
  (match crash_after with
  | None ->
      apply_updates t updates;
      append t (Wal.End { tid });
      t.volatile_staged <- Int_map.remove tid t.volatile_staged
  | Some n ->
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | u :: rest -> u :: take (k - 1) rest
      in
      apply_updates t (take n updates);
      crash t)

let abort t ~tid =
  require t ~tid [ `Active; `Prepared ];
  append t (Wal.Abort_log { tid });
  t.volatile_staged <- Int_map.remove tid t.volatile_staged

(* What one replay pass keeps per tid: the updates of its last
   commit-log and last stage record. *)
type replayed = {
  mutable last_commit : Wal.update list option;
  mutable last_stage : Wal.update list option;
}

let recover ?(undecided = []) t =
  crash t;
  let seen = Int_tbl.create 64 and first_seen = ref [] in
  List.iter
    (fun record ->
      let tid = Wal.tid_of record in
      let r =
        match Int_tbl.find_opt seen tid with
        | Some r -> r
        | None ->
            let r = { last_commit = None; last_stage = None } in
            Int_tbl.add seen tid r;
            first_seen := tid :: !first_seen;
            r
      in
      match record with
      | Wal.Commit_log { updates; _ } -> r.last_commit <- Some updates
      | Wal.Stage { updates; _ } -> r.last_stage <- Some updates
      | Wal.Begin _ | Wal.Prepared _ | Wal.Abort_log _ | Wal.End _ -> ())
    (wal_records t);
  let redone = ref [] and in_doubt = ref [] and aborted = ref [] in
  List.iter
    (fun tid ->
      match status t ~tid with
      | `Ended | `Aborted | `Unknown -> ()
      | `Committed ->
          (* Redo every update from the commit log; idempotence makes
             replaying already-applied ones harmless. *)
          apply_updates t
            (Option.value (Int_tbl.find seen tid).last_commit ~default:[]);
          append t (Wal.End { tid });
          redone := tid :: !redone
      | `Prepared ->
          (* Re-stage the update information from the forced Stage
             record so a later group-commit can still apply it. *)
          (match (Int_tbl.find seen tid).last_stage with
          | Some updates ->
              t.volatile_staged <- Int_map.add tid updates t.volatile_staged
          | None -> ());
          in_doubt := tid :: !in_doubt
      | `Active ->
          (* The paper's rule aborts transactions that never reached the
             prepared state — but a caller that knows the group has not
             yet decided (termination may still commit while this site was
             between its vote and the forced prepare) can keep them open
             and report them in doubt instead. *)
          if List.mem tid undecided then in_doubt := tid :: !in_doubt
          else begin
            append t (Wal.Abort_log { tid });
            aborted := tid :: !aborted
          end)
    (List.rev !first_seen);
  {
    redone = List.rev !redone;
    in_doubt = List.rev !in_doubt;
    aborted = List.rev !aborted;
  }

let read t key = Kv.get t.db key

let database t = t.db

let pp fmt t =
  Format.fprintf fmt "wal:@.";
  List.iter (fun r -> Format.fprintf fmt "  %a@." Wal.pp r) (wal_records t);
  Format.fprintf fmt "db: %a@." Kv.pp t.db

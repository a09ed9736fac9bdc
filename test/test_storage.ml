(* Tests for the single-site durability substrate (lib/storage):
   WAL encode/decode, the KV store, and the Section 2 crash-recovery
   scheme with idempotent redo. *)

let check = Alcotest.check

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Wal                                                                 *)
(* ------------------------------------------------------------------ *)

let record_t : Wal.record Alcotest.testable = Alcotest.testable Wal.pp Wal.equal

let test_wal_roundtrip_basics () =
  let records =
    [
      Wal.Begin { tid = 1 };
      Wal.Prepared { tid = 42 };
      Wal.Abort_log { tid = 7 };
      Wal.End { tid = 3 };
      Wal.Commit_log { tid = 9; updates = [] };
      Wal.Commit_log
        {
          tid = 9;
          updates =
            [ { Wal.key = "a"; value = "1" }; { Wal.key = "b"; value = "2" } ];
        };
    ]
  in
  List.iter
    (fun r ->
      match Wal.decode (Wal.encode r) with
      | Ok r' -> check record_t "roundtrip" r r'
      | Error e -> Alcotest.fail e)
    records

let test_wal_escaping () =
  let nasty =
    Wal.Commit_log
      {
        tid = 5;
        updates =
          [
            { Wal.key = "k=ey;with nasty%chars"; value = "v\nwith = stuff;" };
            { Wal.key = ""; value = "" };
          ];
      }
  in
  let line = Wal.encode nasty in
  check Alcotest.bool "single line" true (not (String.contains line '\n'));
  match Wal.decode line with
  | Ok r -> check record_t "nasty roundtrip" nasty r
  | Error e -> Alcotest.fail e

let test_wal_decode_errors () =
  let bad = [ "nonsense"; "begin x"; "commit"; "prepared"; "commit 3 a" ] in
  List.iter
    (fun line ->
      match Wal.decode line with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not decode" line)
      | Error _ -> ())
    bad

let wal_roundtrip_property =
  QCheck.Test.make ~name:"Wal encode/decode roundtrip (arbitrary updates)"
    QCheck.(
      pair (int_range 1 100000) (list (pair printable_string printable_string)))
    (fun (tid, kvs) ->
      let updates = List.map (fun (key, value) -> { Wal.key; value }) kvs in
      let r = Wal.Commit_log { tid; updates } in
      match Wal.decode (Wal.encode r) with
      | Ok r' -> Wal.equal r r'
      | Error _ -> false)

let test_wal_tid_of () =
  check Alcotest.int "tid" 4 (Wal.tid_of (Wal.Prepared { tid = 4 }));
  check Alcotest.int "tid" 8 (Wal.tid_of (Wal.Commit_log { tid = 8; updates = [] }))

(* ------------------------------------------------------------------ *)
(* Kv                                                                  *)
(* ------------------------------------------------------------------ *)

let test_kv_basics () =
  let kv = Kv.create () in
  check Alcotest.(option string) "missing" None (Kv.get kv "x");
  Kv.set kv ~key:"x" ~value:"1";
  Kv.set kv ~key:"y" ~value:"2";
  Kv.set kv ~key:"x" ~value:"3";
  check Alcotest.(option string) "overwritten" (Some "3") (Kv.get kv "x");
  check Alcotest.int "cardinal" 2 (Kv.cardinal kv);
  check Alcotest.int "applications" 3 (Kv.applications kv);
  Kv.remove kv "x";
  check Alcotest.(option string) "removed" None (Kv.get kv "x");
  check Alcotest.(list string) "keys sorted" [ "y" ] (Kv.keys kv)

let test_kv_snapshot_restore () =
  let kv = Kv.create () in
  Kv.set kv ~key:"b" ~value:"2";
  Kv.set kv ~key:"a" ~value:"1";
  let snap = Kv.snapshot kv in
  check Alcotest.(list (pair string string)) "sorted snapshot"
    [ ("a", "1"); ("b", "2") ]
    snap;
  let kv' = Kv.restore snap in
  check Alcotest.bool "equal contents" true (Kv.equal_contents kv kv')

let kv_set_idempotent =
  QCheck.Test.make ~name:"Kv absolute writes are idempotent"
    QCheck.(list (pair small_string small_string))
    (fun kvs ->
      let a = Kv.create () and b = Kv.create () in
      List.iter (fun (key, value) -> Kv.set a ~key ~value) kvs;
      List.iter (fun (key, value) -> Kv.set b ~key ~value) kvs;
      List.iter (fun (key, value) -> Kv.set b ~key ~value) kvs;
      (* applied twice *)
      Kv.equal_contents a b)

(* ------------------------------------------------------------------ *)
(* Durable_site: the Section 2 scheme                                  *)
(* ------------------------------------------------------------------ *)

let updates = [ { Wal.key = "a"; value = "1" }; { Wal.key = "b"; value = "2" } ]

let test_happy_path_commit () =
  let s = Durable_site.create () in
  Durable_site.begin_transaction s ~tid:1;
  check Alcotest.bool "active" true (Durable_site.status s ~tid:1 = `Active);
  Durable_site.stage s ~tid:1 updates;
  check Alcotest.(option string) "not yet visible" None (Durable_site.read s "a");
  Durable_site.commit s ~tid:1 ();
  check Alcotest.(option string) "a" (Some "1") (Durable_site.read s "a");
  check Alcotest.(option string) "b" (Some "2") (Durable_site.read s "b");
  check Alcotest.bool "ended" true (Durable_site.status s ~tid:1 = `Ended);
  (* WAL shape: begin, commit, end. *)
  match Durable_site.wal_records s with
  | [ Wal.Begin _; Wal.Commit_log _; Wal.End _ ] -> ()
  | other ->
      Alcotest.fail
        (Format.asprintf "unexpected WAL: %a"
           (Format.pp_print_list Wal.pp)
           other)

let test_abort_discards () =
  let s = Durable_site.create () in
  Durable_site.begin_transaction s ~tid:1;
  Durable_site.stage s ~tid:1 updates;
  Durable_site.abort s ~tid:1;
  check Alcotest.(option string) "nothing applied" None (Durable_site.read s "a");
  check Alcotest.bool "aborted" true (Durable_site.status s ~tid:1 = `Aborted)

let test_double_begin_rejected () =
  let s = Durable_site.create () in
  Durable_site.begin_transaction s ~tid:1;
  let raised =
    try
      Durable_site.begin_transaction s ~tid:1;
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "double begin raises" true raised

let test_commit_unknown_rejected () =
  let s = Durable_site.create () in
  let raised =
    try
      Durable_site.commit s ~tid:9 ();
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "unknown commit raises" true raised

let test_crash_before_commit_log_aborts () =
  (* Paper: "If failures occur at any time before the commit log is
     stored, then immediately upon recovery the site will abort." *)
  let s = Durable_site.create () in
  Durable_site.begin_transaction s ~tid:1;
  Durable_site.stage s ~tid:1 updates;
  Durable_site.crash s;
  let report = Durable_site.recover s in
  check Alcotest.(list int) "aborted on recovery" [ 1 ] report.aborted;
  check Alcotest.(list int) "nothing redone" [] report.redone;
  check Alcotest.(option string) "no effects" None (Durable_site.read s "a");
  check Alcotest.bool "aborted status" true
    (Durable_site.status s ~tid:1 = `Aborted)

let test_crash_mid_apply_redoes () =
  (* Paper: "If failures occur after the commit log is stored but
     before the updates are finished, all the updates will be applied
     again when the site recovers." *)
  let s = Durable_site.create () in
  Durable_site.begin_transaction s ~tid:1;
  Durable_site.stage s ~tid:1 updates;
  Durable_site.commit s ~crash_after:1 ~tid:1 ();
  (* Torn state: a applied, b not, no End. *)
  check Alcotest.(option string) "a applied" (Some "1") (Durable_site.read s "a");
  check Alcotest.(option string) "b missing" None (Durable_site.read s "b");
  check Alcotest.bool "committed, not ended" true
    (Durable_site.status s ~tid:1 = `Committed);
  let before = Kv.applications (Durable_site.database s) in
  let report = Durable_site.recover s in
  check Alcotest.(list int) "redone" [ 1 ] report.redone;
  check Alcotest.(option string) "b now applied" (Some "2")
    (Durable_site.read s "b");
  check Alcotest.bool "ended" true (Durable_site.status s ~tid:1 = `Ended);
  (* Idempotence at work: "a" was re-applied harmlessly. *)
  check Alcotest.int "both updates replayed" (before + 2)
    (Kv.applications (Durable_site.database s));
  (* A second recovery is a no-op. *)
  let report2 = Durable_site.recover s in
  check Alcotest.(list int) "nothing further" [] report2.redone

let test_prepared_in_doubt () =
  let s = Durable_site.create () in
  Durable_site.begin_transaction s ~tid:1;
  Durable_site.stage s ~tid:1 updates;
  Durable_site.prepare s ~tid:1;
  Durable_site.crash s;
  let report = Durable_site.recover s in
  check Alcotest.(list int) "in doubt" [ 1 ] report.in_doubt;
  check Alcotest.(list int) "not aborted" [] report.aborted;
  check Alcotest.bool "still prepared" true
    (Durable_site.status s ~tid:1 = `Prepared)

let test_crash_loses_staged_updates () =
  let s = Durable_site.create () in
  Durable_site.begin_transaction s ~tid:1;
  Durable_site.stage s ~tid:1 updates;
  Durable_site.crash s;
  check Alcotest.int "volatile staging gone" 0
    (List.length (Durable_site.staged s ~tid:1))

let test_multiple_transactions_recovery () =
  let s = Durable_site.create () in
  (* t1 commits cleanly; t2 commits and crashes mid-apply; t3 is
     prepared; t4 only began. *)
  Durable_site.begin_transaction s ~tid:1;
  Durable_site.stage s ~tid:1 [ { Wal.key = "one"; value = "1" } ];
  Durable_site.commit s ~tid:1 ();
  Durable_site.begin_transaction s ~tid:2;
  Durable_site.stage s ~tid:2
    [ { Wal.key = "two"; value = "2" }; { Wal.key = "two'"; value = "2" } ];
  Durable_site.begin_transaction s ~tid:3;
  Durable_site.stage s ~tid:3 [ { Wal.key = "three"; value = "3" } ];
  Durable_site.prepare s ~tid:3;
  Durable_site.begin_transaction s ~tid:4;
  Durable_site.commit s ~crash_after:0 ~tid:2 ();
  let report = Durable_site.recover s in
  check Alcotest.(list int) "redone t2" [ 2 ] report.redone;
  check Alcotest.(list int) "in doubt t3" [ 3 ] report.in_doubt;
  check Alcotest.(list int) "aborted t4" [ 4 ] report.aborted;
  check Alcotest.(option string) "t1 intact" (Some "1") (Durable_site.read s "one");
  check Alcotest.(option string) "t2 completed" (Some "2")
    (Durable_site.read s "two'")

let recovery_always_completes_committed =
  QCheck.Test.make ~count:200
    ~name:"recovery completes every committed transaction regardless of crash point"
    QCheck.(pair (int_range 0 5) (list (pair small_string printable_string)))
    (fun (crash_after, kvs) ->
      let kvs = List.filter (fun (k, _) -> k <> "") kvs in
      let updates = List.map (fun (key, value) -> { Wal.key; value }) kvs in
      let s = Durable_site.create () in
      Durable_site.begin_transaction s ~tid:1;
      Durable_site.stage s ~tid:1 updates;
      Durable_site.commit s ~crash_after ~tid:1 ();
      ignore (Durable_site.recover s);
      (* The database must now reflect every update. *)
      List.for_all
        (fun (u : Wal.update) -> Durable_site.read s u.key <> None)
        updates
      && Durable_site.status s ~tid:1 = `Ended)

(* Crash-point equivalence: committing with a crash injected after any
   prefix of the updates, then recovering, must land on exactly the
   database an uninterrupted commit produces. *)
let crash_point_equivalence =
  QCheck.Test.make ~count:200
    ~name:"commit ~crash_after:k + recover = uninterrupted commit, for every k"
    (* Bounded size: the property replays the commit once per prefix
       point, so an unbounded list makes the test quadratic in the
       update count without covering anything new. *)
    QCheck.(list_of_size Gen.(int_bound 12) (pair small_string printable_string))
    (fun kvs ->
      let kvs = List.filter (fun (k, _) -> k <> "") kvs in
      let updates = List.map (fun (key, value) -> { Wal.key; value }) kvs in
      let run crash_after =
        let s = Durable_site.create () in
        Durable_site.begin_transaction s ~tid:1;
        Durable_site.stage s ~tid:1 updates;
        Durable_site.prepare s ~tid:1;
        (match crash_after with
        | None -> Durable_site.commit s ~tid:1 ()
        | Some k ->
            Durable_site.commit s ~crash_after:k ~tid:1 ();
            ignore (Durable_site.recover s));
        Kv.snapshot (Durable_site.database s)
      in
      let reference = run None in
      List.init
        (List.length updates + 1)
        (fun k -> run (Some k) = reference)
      |> List.for_all Fun.id)

(* Recovery is a fixpoint after the first call: a second (and third)
   recover changes nothing — same database, same report, in-doubt
   transactions still in doubt. *)
let recover_idempotent =
  QCheck.Test.make ~count:200
    ~name:"recover twice = recover once (same db, same report)"
    QCheck.(pair (int_range 0 3) (int_bound 2))
    (fun (crash_after, shape) ->
      let s = Durable_site.create () in
      (* t1 commits with a mid-apply crash; t2 is in doubt; t3 varies. *)
      Durable_site.begin_transaction s ~tid:1;
      Durable_site.stage s ~tid:1
        [ { Wal.key = "a"; value = "1" }; { Wal.key = "b"; value = "2" } ];
      Durable_site.begin_transaction s ~tid:2;
      Durable_site.stage s ~tid:2 [ { Wal.key = "c"; value = "3" } ];
      Durable_site.prepare s ~tid:2;
      Durable_site.begin_transaction s ~tid:3;
      (match shape with
      | 0 -> ()
      | 1 -> Durable_site.abort s ~tid:3
      | _ -> Durable_site.commit s ~tid:3 ());
      Durable_site.commit s ~crash_after ~tid:1 ();
      let r1 = Durable_site.recover s in
      let db1 = Kv.snapshot (Durable_site.database s) in
      let r2 = Durable_site.recover s in
      let db2 = Kv.snapshot (Durable_site.database s) in
      let r3 = Durable_site.recover s in
      r1.Durable_site.in_doubt = [ 2 ]
      && r2.Durable_site.in_doubt = [ 2 ]
      && r2 = r3 && db1 = db2
      && r2.Durable_site.redone = [] && r2.Durable_site.aborted = [])

(* A long-lived site: the log stays sized by its unfinished work, yet a
   finished tid keeps its status and the in-doubt one survives every
   checkpoint with its forced updates. *)
let test_checkpoint_keeps_unfinished () =
  let s = Durable_site.create () in
  Durable_site.begin_transaction s ~tid:1;
  Durable_site.stage s ~tid:1 updates;
  Durable_site.prepare s ~tid:1;
  for tid = 2 to 500 do
    Durable_site.begin_transaction s ~tid;
    Durable_site.stage s ~tid [ { Wal.key = "c"; value = string_of_int tid } ];
    Durable_site.commit s ~tid ()
  done;
  let wal = Durable_site.wal_records s in
  check Alcotest.bool "log sized by unfinished work" true (List.length wal < 130);
  check Alcotest.int "every record of the prepared tid kept" 3
    (List.length (List.filter (fun r -> Wal.tid_of r = 1) wal));
  check Alcotest.bool "a checkpointed tid keeps its status" true
    (Durable_site.status s ~tid:2 = `Ended);
  check Alcotest.bool "and still rejects a second begin" true
    (try
       Durable_site.begin_transaction s ~tid:2;
       false
     with Invalid_argument _ -> true);
  let report = Durable_site.recover s in
  check Alcotest.(list int) "only the prepared tid is in doubt" [ 1 ]
    report.Durable_site.in_doubt;
  check Alcotest.(list int) "nothing to redo" [] report.Durable_site.redone;
  check Alcotest.(list int) "nothing to abort" [] report.Durable_site.aborted;
  check Alcotest.bool "its forced updates restaged" true
    (Durable_site.staged s ~tid:1 = updates);
  check Alcotest.(option string) "committed work in the database" (Some "500")
    (Durable_site.read s "c")

(* ------------------------------------------------------------------ *)
(* Model-based testing: random op sequences vs. a reference model      *)
(* ------------------------------------------------------------------ *)

type op = O_begin | O_stage | O_prepare | O_commit | O_abort | O_crash | O_recover

let op_gen =
  QCheck.Gen.oneofl
    [ O_begin; O_stage; O_prepare; O_commit; O_abort; O_crash; O_recover ]

(* The reference model tracks, per transaction: its WAL-visible status
   and whether its updates must be in the database at quiescence. *)
type model_status = M_none | M_active | M_prepared | M_committed | M_aborted

(* A reference store that never checkpoints: it keeps the full log and
   recovers by replaying it from record 0, rescanning it per tid. *)
module Full_log = struct
  type t = {
    mutable log : Wal.record list;  (* newest first *)
    db : Kv.t;
    mutable staged : (int * Wal.update list) list;
  }

  let create () = { log = []; db = Kv.create (); staged = [] }

  let append t r = t.log <- r :: t.log

  let status t tid =
    List.find_map
      (fun r ->
        if Wal.tid_of r <> tid then None
        else
          match r with
          | Wal.Begin _ -> Some `Active
          | Wal.Prepared _ -> Some `Prepared
          | Wal.Commit_log _ -> Some `Committed
          | Wal.Abort_log _ -> Some `Aborted
          | Wal.End _ -> Some `Ended
          | Wal.Stage _ -> None)
      t.log
    |> Option.value ~default:`Unknown

  let staged t tid = Option.value (List.assoc_opt tid t.staged) ~default:[]

  let unstage t tid = t.staged <- List.remove_assoc tid t.staged

  let begin_transaction t tid = append t (Wal.Begin { tid })

  let stage t tid updates =
    t.staged <- (tid, updates) :: List.remove_assoc tid t.staged;
    if status t tid = `Prepared && updates <> [] then
      append t (Wal.Stage { tid; updates })

  let prepare t tid =
    (match staged t tid with
    | [] -> ()
    | updates -> append t (Wal.Stage { tid; updates }));
    append t (Wal.Prepared { tid })

  let apply t =
    List.iter (fun (u : Wal.update) -> Kv.set t.db ~key:u.key ~value:u.value)

  let commit t tid =
    let updates = staged t tid in
    append t (Wal.Commit_log { tid; updates });
    apply t updates;
    append t (Wal.End { tid });
    unstage t tid

  let abort t tid =
    append t (Wal.Abort_log { tid });
    unstage t tid

  let crash t = t.staged <- []

  let recover t =
    crash t;
    let records = List.rev t.log in
    (* The updates of the tid's last commit-log / stage record. *)
    let last_commit tid =
      List.fold_left
        (fun acc -> function
          | Wal.Commit_log { tid = t'; updates } when t' = tid -> Some updates
          | _ -> acc)
        None records
    and last_stage tid =
      List.fold_left
        (fun acc -> function
          | Wal.Stage { tid = t'; updates } when t' = tid -> Some updates
          | _ -> acc)
        None records
    in
    let tids =
      List.fold_left
        (fun acc r ->
          let tid = Wal.tid_of r in
          if List.mem tid acc then acc else tid :: acc)
        [] records
      |> List.rev
    in
    List.fold_left
      (fun (rep : Durable_site.recovery_report) tid ->
        match status t tid with
        | `Committed ->
            (match last_commit tid with
            | Some updates -> apply t updates
            | None -> ());
            append t (Wal.End { tid });
            { rep with redone = rep.redone @ [ tid ] }
        | `Prepared ->
            (match last_stage tid with
            | Some updates -> t.staged <- (tid, updates) :: t.staged
            | None -> ());
            { rep with in_doubt = rep.in_doubt @ [ tid ] }
        | `Active ->
            append t (Wal.Abort_log { tid });
            { rep with aborted = rep.aborted @ [ tid ] }
        | `Ended | `Aborted | `Unknown -> rep)
      { Durable_site.redone = []; in_doubt = []; aborted = [] }
      tids

  let records t = List.rev t.log
end

(* Operation [k] targets one of four consecutive tids starting at
   [k / 6], so transactions keep arriving and finishing like a live
   site's and a long history runs past several checkpoints.  A
   full-log reference checks every recovery report, and at the end the
   database and the surviving log. *)
let durable_model_property =
  let tid_of_op k j = (k / 6) + j + 1 in
  QCheck.Test.make ~count:300
    ~name:"Durable_site agrees with a reference model on random op sequences"
    QCheck.(make ~print:(fun l -> string_of_int (List.length l))
              Gen.(list_size (int_range 400 1400) (pair op_gen (int_bound 3))))
    (fun ops ->
      let store = Durable_site.create () in
      let full = Full_log.create () in
      let tids = tid_of_op (List.length ops) 3 in
      let statuses = Array.make tids M_none in
      let staged = Array.make tids false in
      let ok = ref true in
      let expect_invalid f =
        match f () with
        | () -> ok := false (* the store accepted an op the model forbids *)
        | exception Invalid_argument _ -> ()
      in
      List.iteri
        (fun k (op, j) ->
          let tid = tid_of_op k j in
          let i = tid - 1 in
          match (op, statuses.(i)) with
          | O_begin, M_none ->
              Durable_site.begin_transaction store ~tid;
              Full_log.begin_transaction full tid;
              statuses.(i) <- M_active
          | O_begin, _ ->
              expect_invalid (fun () -> Durable_site.begin_transaction store ~tid)
          | O_stage, (M_active | M_prepared) ->
              let updates =
                [ { Wal.key = Printf.sprintf "k%d" tid; value = string_of_int tid } ]
              in
              Durable_site.stage store ~tid updates;
              Full_log.stage full tid updates;
              staged.(i) <- true
          | O_stage, _ ->
              expect_invalid (fun () -> Durable_site.stage store ~tid [])
          | O_prepare, M_active ->
              Durable_site.prepare store ~tid;
              Full_log.prepare full tid;
              statuses.(i) <- M_prepared
          | O_prepare, _ ->
              expect_invalid (fun () -> Durable_site.prepare store ~tid)
          | O_commit, (M_active | M_prepared) ->
              Durable_site.commit store ~tid ();
              Full_log.commit full tid;
              statuses.(i) <- M_committed
          | O_commit, _ ->
              expect_invalid (fun () -> Durable_site.commit store ~tid ())
          | O_abort, (M_active | M_prepared) ->
              Durable_site.abort store ~tid;
              Full_log.abort full tid;
              statuses.(i) <- M_aborted;
              staged.(i) <- false
          | O_abort, _ ->
              expect_invalid (fun () -> Durable_site.abort store ~tid)
          | O_crash, _ ->
              Durable_site.crash store;
              Full_log.crash full;
              Array.iteri (fun j _ -> staged.(j) <- false) staged
          | O_recover, _ ->
              let report = Durable_site.recover store in
              if report <> Full_log.recover full then ok := false;
              (* recovery aborts actives, leaves prepared in doubt *)
              List.iter
                (fun tid -> statuses.(tid - 1) <- M_aborted)
                report.Durable_site.aborted;
              Array.iteri (fun j _ -> staged.(j) <- false) staged)
        ops;
      (* Final agreement: WAL status matches the model; committed
         transactions with staged updates reached the database. *)
      Array.iteri
        (fun i model ->
          let tid = i + 1 in
          let actual = Durable_site.status store ~tid in
          let agrees =
            match (model, actual) with
            | M_none, `Unknown
            | M_active, `Active
            | M_prepared, `Prepared
            | M_aborted, `Aborted
            | M_committed, (`Committed | `Ended) ->
                true
            | _, _ -> false
          in
          if not agrees then ok := false;
          if model = M_committed && staged.(i) then
            if Durable_site.read store (Printf.sprintf "k%d" tid) = None then
              ok := false)
        statuses;
      (* The checkpointed log is the full log minus finished tids: every
         record of an unfinished tid survives, in order. *)
      let unfinished r =
        match Durable_site.status store ~tid:(Wal.tid_of r) with
        | `Ended | `Aborted -> false
        | `Unknown | `Active | `Prepared | `Committed -> true
      in
      let kept = Durable_site.wal_records store in
      if List.filter unfinished kept <> List.filter unfinished (Full_log.records full)
      then ok := false;
      if Kv.snapshot (Durable_site.database store) <> Kv.snapshot full.Full_log.db
      then ok := false;
      !ok)

let () =
  Alcotest.run "commit_storage"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip basics" `Quick test_wal_roundtrip_basics;
          Alcotest.test_case "escaping" `Quick test_wal_escaping;
          Alcotest.test_case "decode errors" `Quick test_wal_decode_errors;
          Alcotest.test_case "tid_of" `Quick test_wal_tid_of;
          qtest wal_roundtrip_property;
        ] );
      ( "kv",
        [
          Alcotest.test_case "basics" `Quick test_kv_basics;
          Alcotest.test_case "snapshot/restore" `Quick test_kv_snapshot_restore;
          qtest kv_set_idempotent;
        ] );
      ( "durable_site",
        [
          Alcotest.test_case "happy path" `Quick test_happy_path_commit;
          Alcotest.test_case "abort discards" `Quick test_abort_discards;
          Alcotest.test_case "double begin rejected" `Quick
            test_double_begin_rejected;
          Alcotest.test_case "unknown commit rejected" `Quick
            test_commit_unknown_rejected;
          Alcotest.test_case "crash before commit log aborts" `Quick
            test_crash_before_commit_log_aborts;
          Alcotest.test_case "crash mid-apply redoes" `Quick
            test_crash_mid_apply_redoes;
          Alcotest.test_case "prepared is in doubt" `Quick test_prepared_in_doubt;
          Alcotest.test_case "crash loses staged updates" `Quick
            test_crash_loses_staged_updates;
          Alcotest.test_case "multi-transaction recovery" `Quick
            test_multiple_transactions_recovery;
          qtest recovery_always_completes_committed;
          qtest crash_point_equivalence;
          qtest recover_idempotent;
          Alcotest.test_case "checkpoint keeps unfinished work" `Quick
            test_checkpoint_keeps_unfinished;
          qtest durable_model_property;
        ] );
    ]

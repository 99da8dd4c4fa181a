(* Additional property-based tests on core data structures: each
   compares the implementation against a trivially-correct model under
   random operation sequences. *)

open Engine
open Hw
open Core

let qtest = QCheck_alcotest.to_alcotest

(* --- Frame_stack vs a plain list model --- *)

type fs_op = Push of int | Remove of int | To_top of int | To_bottom of int

let fs_op_gen =
  QCheck.Gen.(
    oneof
      [ map (fun p -> Push p) (int_range 0 30);
        map (fun p -> Remove p) (int_range 0 30);
        map (fun p -> To_top p) (int_range 0 30);
        map (fun p -> To_bottom p) (int_range 0 30) ])

let fs_op_print = function
  | Push p -> Printf.sprintf "push %d" p
  | Remove p -> Printf.sprintf "remove %d" p
  | To_top p -> Printf.sprintf "to_top %d" p
  | To_bottom p -> Printf.sprintf "to_bottom %d" p

let frame_stack_model =
  QCheck.Test.make ~name:"frame stack matches list model" ~count:200
    QCheck.(list (make ~print:fs_op_print fs_op_gen))
    (fun ops ->
      let fs = Frame_stack.create () in
      let model = ref [] in
      List.iter
        (fun op ->
          match op with
          | Push p ->
            if not (List.mem p !model) then begin
              Frame_stack.push fs p;
              model := p :: !model
            end
          | Remove p ->
            let expected = List.mem p !model in
            let got = Frame_stack.remove fs p in
            assert (got = expected);
            model := List.filter (fun q -> q <> p) !model
          | To_top p ->
            if List.mem p !model then begin
              Frame_stack.move_to_top fs p;
              model := p :: List.filter (fun q -> q <> p) !model
            end
          | To_bottom p ->
            if List.mem p !model then begin
              Frame_stack.move_to_bottom fs p;
              model := List.filter (fun q -> q <> p) !model @ [ p ]
            end)
        ops;
      Frame_stack.to_list fs = !model
      && Frame_stack.size fs = List.length !model
      && Frame_stack.top_k fs 3
         = List.filteri (fun i _ -> i < 3) !model)

(* --- Io_channel preserves order and counts under mixed traffic --- *)

let io_channel_order =
  QCheck.Test.make ~name:"io channel is an exact FIFO" ~count:100
    QCheck.(pair (int_range 1 8) (small_list small_int))
    (fun (depth, items) ->
      let sim = Sim.create () in
      let ch = Usbs.Io_channel.create ~depth in
      let received = ref [] in
      ignore
        (Proc.spawn sim (fun () ->
             List.iter
               (fun v ->
                 Usbs.Io_channel.send ch v;
                 Proc.yield ())
               items));
      ignore
        (Proc.spawn sim (fun () ->
             for _ = 1 to List.length items do
               received := Usbs.Io_channel.recv ch :: !received;
               Proc.yield ()
             done));
      Sim.run sim;
      List.rev !received = items)

(* --- Trace.between is a filter by timestamp --- *)

let trace_between_filter =
  QCheck.Test.make ~name:"trace between = timestamp filter" ~count:200
    QCheck.(triple (small_list (int_range 0 100)) (int_range 0 100)
              (int_range 0 100))
    (fun (stamps, a, b) ->
      let lo = min a b and hi = max a b in
      let tr = Trace.create (fun _ row i -> row.(i)) in
      let sorted = List.sort compare stamps in
      List.iteri (fun i ts -> Trace.record1 tr ts ~kind:0 i) sorted;
      let expected =
        List.filteri (fun _ _ -> true) sorted
        |> List.mapi (fun i ts -> (ts, i))
        |> List.filter (fun (ts, _) -> ts >= lo && ts < hi)
      in
      Trace.between tr lo hi = expected)

(* --- Tlb: never returns a mapping that was not inserted --- *)

let tlb_soundness =
  QCheck.Test.make ~name:"tlb only returns inserted mappings" ~count:200
    QCheck.(list (triple bool (int_range 0 15) (int_range 0 63)))
    (fun ops ->
      let tlb = Tlb.create ~entries:8 () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (is_insert, vpn, pfn) ->
          if is_insert then begin
            let pte =
              Pte.set_valid (Pte.make ~sid:1 ~global:Rights.all) ~pfn
            in
            Tlb.insert tlb ~asn:1 ~vpn pte;
            Hashtbl.replace model vpn pfn;
            true
          end
          else begin
            (* A hit must agree with the last insert; a miss is always
               acceptable (capacity eviction). *)
            match Tlb.lookup tlb ~asn:1 ~vpn with
            | Some pte -> Hashtbl.find_opt model vpn = Some (Pte.pfn pte)
            | None -> true
          end)
        ops)

(* --- Edf: total consumption can never exceed capacity --- *)

let edf_capacity =
  QCheck.Test.make ~name:"edf admission keeps utilisation <= 1" ~count:200
    QCheck.(list (pair (int_range 1 20) (int_range 1 20)))
    (fun contracts ->
      let t = Sched.Edf.create () in
      List.iter
        (fun (p, s) ->
          ignore
            (Sched.Edf.admit t ~name:"c" ~period:(Time.ms p)
               ~slice:(Time.ms (min s p)) ~now:Time.zero ()))
        contracts;
      Sched.Edf.utilisation t <= 1.0 +. 1e-9)

let suite =
  [ ( "properties",
      [ qtest frame_stack_model;
        qtest io_channel_order;
        qtest trace_between_filter;
        qtest tlb_soundness;
        qtest edf_capacity ] ) ]

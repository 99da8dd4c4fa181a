(* Memory-mapped files on a self-paging system.

   The paper closes on the point that demand paging and memory-mapped
   files must not be lost in a QoS operating system. Here two domains
   map the same file-store file — one shared, one private
   (copy-on-write) — and each pages it under its own disk guarantee,
   through the same paged stretch driver that pages anonymous memory
   to swap, here over the file:

   - the shared mapping's dirty pages are written back to the file;
   - the private mapping never touches the file: its first dirty
     eviction of a page copies it to an anonymous backing file.

   Run with: dune exec examples/mapped_file.exe *)

open Engine
open Hw
open Core

let file_pages = 64

let map_and_work sys name mode dirty_stride =
  let d =
    match System.add_domain sys ~name ~guarantee:2 ~optimistic:0 () with
    | Ok d -> d
    | Error e -> failwith (System.error_message e)
  in
  let stretch =
    match System.alloc_stretch d ~bytes:(file_pages * Addr.page_size) () with
    | Ok s -> s
    | Error e -> failwith e
  in
  let file =
    match Usbs.File_store.find (System.file_store sys) "shared.dat" with
    | Some f -> f
    | None -> failwith "file missing"
  in
  let info_ref = ref None in
  ignore
    (Domains.spawn_thread d.System.dom ~name:"work" (fun () ->
         let qos =
           Usbs.Qos.make ~period:(Time.ms 250) ~slice:(Time.ms 60) ()
         in
         let _, info =
           match
             System.bind_mapped d ~mode ~initial_frames:2 ~file ~qos stretch ()
           with
           | Ok x -> x
           | Error e -> failwith (System.error_message e)
         in
         info_ref := Some info;
         (* Read the whole file, dirty every [dirty_stride]-th page,
            then read everything again. *)
         for i = 0 to file_pages - 1 do
           Domains.access d.System.dom (Stretch.page_base stretch i) `Read
         done;
         let i = ref 0 in
         while !i < file_pages do
           Domains.access d.System.dom (Stretch.page_base stretch !i) `Write;
           i := !i + dirty_stride
         done;
         for i = 0 to file_pages - 1 do
           Domains.access d.System.dom (Stretch.page_base stretch i) `Read
         done));
  (d, info_ref)

let () =
  let sys = System.create () in
  let store = System.file_store sys in
  (match
     Usbs.File_store.create_file store ~name:"shared.dat"
       ~bytes:(file_pages * Addr.page_size)
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  let _, shared_info = map_and_work sys "editor" System.Shared 4 in
  let _, private_info = map_and_work sys "viewer" System.Private 4 in
  System.run sys ~until:(Time.sec 120);
  let show name = function
    | Some info ->
      let i : Tier.Backing.file_io = info () in
      Format.printf
        "%-8s file-reads=%3d  writebacks=%3d  cow-writes=%3d  cow-reads=%3d@."
        name i.file_reads i.file_writebacks i.cow_writes i.cow_reads
    | None -> Format.printf "%-8s did not bind@." name
  in
  show "editor" !shared_info;
  show "viewer" !private_info;
  Format.printf
    "@.The editor's dirty pages went back to the file; the viewer's went to@.";
  Format.printf
    "its private copy-on-write backing — the file itself stayed pristine.@."

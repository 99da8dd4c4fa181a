type io_error = [ `Lost_pages of int list | `Retired | `Crashed ]

type t = {
  label : string;
  page_capacity : unit -> int;
  journaled : unit -> bool;
  read_pages : page_index:int -> npages:int -> (unit, io_error) result;
  write_page : page_index:int -> (unit, io_error) result;
  write_pages : page_index:int -> npages:int -> (unit, io_error) result;
  write_pages_commit :
    page_index:int ->
    npages:int ->
    pages:(int * int) list ->
    retire:(int * int) list ->
    (unit, io_error) result;
  slot_committed : int -> bool;
  extent : unit -> int * int;
}

let of_sfs swap =
  { label = "sfs";
    page_capacity = (fun () -> Usbs.Sfs.page_capacity swap);
    journaled = (fun () -> Usbs.Sfs.swap_journaled swap);
    read_pages =
      (fun ~page_index ~npages ->
        Usbs.Sfs.read_pages swap ~page_index ~npages);
    write_page = (fun ~page_index -> Usbs.Sfs.write_page swap ~page_index);
    write_pages =
      (fun ~page_index ~npages ->
        Usbs.Sfs.write_pages swap ~page_index ~npages);
    write_pages_commit =
      (fun ~page_index ~npages ~pages ~retire ->
        Usbs.Sfs.write_pages_commit swap ~page_index ~npages ~pages ~retire);
    slot_committed = (fun slot -> Usbs.Sfs.slot_committed swap slot);
    extent =
      (fun () -> (Usbs.Sfs.extent_start swap, Usbs.Sfs.extent_blocks swap)) }

type file_io = {
  file_reads : int;
  file_writebacks : int;
  cow_writes : int;
  cow_reads : int;
}

let of_file store ~client file ~npages ~copy =
  let npages = min npages (Usbs.File_store.file_pages file) in
  let copied = Array.make npages false in
  let io =
    ref { file_reads = 0; file_writebacks = 0; cow_writes = 0; cow_reads = 0 }
  in
  (* One page per transaction; a lost page is reported and the rest
     still move. *)
  let each page_index npages f =
    let rec go i lost =
      if i = page_index + npages then
        if lost = [] then Ok () else Error (`Lost_pages (List.rev lost))
      else
        match f i with
        | Ok () -> go (i + 1) lost
        | Error (`Media _) -> go (i + 1) (i :: lost)
        | Error `Retired -> Error `Retired
    in
    go page_index []
  in
  let read i =
    let c = !io in
    match copy with
    | Some (cow, _) when copied.(i) ->
      io := { c with cow_reads = c.cow_reads + 1 };
      Usbs.File_store.read_page store cow ~client ~page_index:i
    | _ ->
      io := { c with file_reads = c.file_reads + 1 };
      Usbs.File_store.read_page store file ~client ~page_index:i
  in
  let write i =
    let c = !io in
    match copy with
    | Some (cow, charge) ->
      if not copied.(i) then begin
        charge ();
        copied.(i) <- true
      end;
      io := { c with cow_writes = c.cow_writes + 1 };
      Usbs.File_store.write_page store cow ~client ~page_index:i
    | None ->
      io := { c with file_writebacks = c.file_writebacks + 1 };
      Usbs.File_store.write_page store file ~client ~page_index:i
  in
  let write_pages ~page_index ~npages = each page_index npages write in
  ( { label = (match copy with None -> "file" | Some _ -> "file-cow");
      page_capacity = (fun () -> npages);
      journaled = (fun () -> false);
      read_pages = (fun ~page_index ~npages -> each page_index npages read);
      write_page = (fun ~page_index -> each page_index 1 write);
      write_pages;
      write_pages_commit =
        (fun ~page_index ~npages ~pages:_ ~retire:_ ->
          write_pages ~page_index ~npages);
      slot_committed = (fun _ -> false);
      extent =
        (fun () ->
          ( Usbs.File_store.extent_start file,
            Usbs.File_store.extent_blocks file )) },
    fun () -> !io )

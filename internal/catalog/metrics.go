package catalog

import "repro/internal/metrics"

// Instrument registers a scrape-time collector exposing catalog-wide
// lifecycle counters (catalog_*) and one series per registered tenant
// labeled {tenant=name} for the translate/execute/lookup and cache
// instruments. Tenant series appear and disappear with registration and
// eviction — exactly the dynamic population scrape-time collection exists
// for; the lock-free lookup hot path is untouched. Register each catalog
// once per registry.
func (c *Catalog) Instrument(reg *metrics.Registry) {
	reg.Collect(func(s *metrics.Sink) {
		st := c.Stats()
		s.Gauge("catalog_tenants", "Registered tenant databases.", float64(len(st.Tenants)))
		s.Gauge("catalog_max_tenants", "Configured tenant cap (past it the LRU tenant is evicted).", float64(st.MaxTenants))
		s.Counter("catalog_registered_total", "Databases registered since start.", float64(st.Registered))
		s.Counter("catalog_reregistered_total", "Databases re-registered (version bumps).", float64(st.Reregistered))
		s.Counter("catalog_deregistered_total", "Databases explicitly deregistered.", float64(st.Deregistered))
		s.Counter("catalog_evicted_total", "Tenants evicted by the LRU cap or idle TTL.", float64(st.Evicted))
		s.Counter("catalog_adopted_total", "Tenants adopted from another shard's persisted snapshot (resharding hand-off).", float64(st.Adopted))
		s.Counter("catalog_builds_done_total", "Async tenant model builds published.", float64(st.BuildsDone))
		s.Counter("catalog_builds_stale_total", "Builds discarded because a newer registration retired them.", float64(st.BuildsStale))
		s.Counter("catalog_builds_failed_total", "Builds that errored (typically cancelled during drain).", float64(st.BuildsFailed))
		if st.Store != nil {
			ss := st.Store
			s.Counter("catalog_unloads_total", "Ready tenants unloaded back to stored stubs by the memory budget or idle reclamation.", float64(st.Unloads))
			s.Gauge("store_resident_bytes", "Loaded (resident) bytes of store-backed tenant state.", float64(st.StoreResidentBytes))
			s.Counter("store_loads_total", "Tenant snapshots lazily loaded from the store.", float64(ss.Loads))
			s.Counter("store_load_failures_total", "Snapshot loads that failed verification (tenant dropped durably).", float64(ss.LoadFailures))
			s.Counter("store_saves_total", "Tenant snapshots persisted (registration + build completion).", float64(ss.Saves))
			s.Counter("store_save_failures_total", "Snapshot writes that failed to encode, write or publish.", float64(ss.SaveFailures))
			s.Counter("store_deletes_total", "Tenant snapshot files removed by deregistration or eviction.", float64(ss.Deletes))
			s.Counter("store_bytes_loaded_total", "Snapshot bytes read from the store.", float64(ss.BytesLoaded))
			s.Counter("store_bytes_saved_total", "Snapshot bytes written to the store.", float64(ss.BytesSaved))
			s.Counter("store_wal_appends_total", "Catalog mutations appended to the write-ahead log.", float64(ss.WALAppends))
			s.Counter("store_wal_syncs_total", "WAL fsyncs issued.", float64(ss.WALSyncs))
			s.Counter("store_wal_append_failures_total", "WAL appends that failed to write or fsync (the mutation is not durable).", float64(ss.WALAppendFailures))
			s.Counter("store_compactions_total", "WAL compactions performed at startup.", float64(ss.Compactions))
			s.Gauge("store_wal_records_replayed", "WAL records replayed at startup.", float64(ss.WALReplayed))
			s.Gauge("store_recovered_tenants", "Tenants replayed from the WAL at startup.", float64(ss.Recovered))
			s.Gauge("store_recovery_ms", "Startup WAL replay + snapshot scan time in milliseconds.", ss.RecoveryMs)
			s.Gauge("store_snapshot_files", "Snapshot files currently on disk.", float64(ss.Snapshots))
			s.Gauge("store_snapshot_bytes", "Snapshot bytes currently on disk.", float64(ss.SnapshotB))
		}
		for _, t := range st.Tenants {
			lbl := metrics.L("tenant", t.Name)
			s.Counter("tenant_translations_total", "Translations served for the tenant.", float64(t.Translations), lbl)
			s.Counter("tenant_translate_seconds_total", "Summed translation latency for the tenant; divided by tenant_translations_total it is the mean.", t.TranslateSeconds, lbl)
			s.Counter("tenant_executions_total", "/execute queries served for the tenant.", float64(t.Executions), lbl)
			s.Counter("tenant_lookups_total", "Tenant resolutions on the request hot path.", float64(t.Lookups), lbl)
			s.Counter("tenant_llm_cache_hits_total", "Tenant LLM cache hits.", float64(t.CacheHits), lbl)
			s.Counter("tenant_llm_cache_misses_total", "Tenant LLM cache misses.", float64(t.CacheMisses), lbl)
			s.Counter("tenant_plan_cache_hits_total", "Tenant plan cache hits.", float64(t.PlanCacheHits), lbl)
			s.Counter("tenant_plan_cache_misses_total", "Tenant plan cache misses.", float64(t.PlanCacheMisses), lbl)
			ready := 0.0
			if t.State == string(StateReady) {
				ready = 1
			}
			s.Gauge("tenant_ready", "1 once the tenant's own models are published (0 while warming).", ready, lbl)
		}
	})
}

package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.tables.Table3

/** spark-submit entrypoint for Table 3 (cross-dataset transfer of matching
  * solutions).
  *
  * Usage: spark-submit --class repro.jobs.Table3Job <jar>
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .appName("frost-table3")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(Table3.format(Table3.run(spark)))
    finally spark.stop()
  }
}
